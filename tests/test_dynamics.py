import contextlib
import gc
import math
import os
import sys
import weakref
from dataclasses import replace
from types import SimpleNamespace

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
from retnbody.fields import ExternalFieldModel, SelfForceMode
from retnbody.minkowski import dot, lower, raise_index
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
    x = -+1.5 receding at 0.5 c, in one store."""
    specs = [ParticleSpec(1.0, 0.5, 0.5, "left"), ParticleSpec(1.0, 0.5, 0.5, "right")]
    return wl.copy_histories(
        [inertial_history(spec, [x - v * span, 0, 0], [v, 0, 0], -span, 0.0, 32)
         for spec, x, v in zip(specs, (-1.5, 1.5), (-0.5, 0.5))])


def test_seed_accepts_prehistory_reaching_the_refined_depth():
    # the root search starts at sqrt(d^2 + sigma^2)/c = 3.04, before
    # t_first = -2.5, but the deepest root (2.04) lies inside the history
    pre = receding_prehistories(2.5)
    seed(prehistories=pre)
    assert max_delay(pre, 0.0) == pytest.approx(2.0415, abs=1e-4)


def test_seed_requires_coverage_of_the_refined_depth():
    pre = receding_prehistories(1.5)
    with pytest.raises(InsufficientPrehistory) as err:
        seed(prehistories=pre, coverage_factor=1.2)
    assert err.value.required == 1.2 * max_delay(pre, 0.0)
    assert err.value.required == pytest.approx(2.4497, abs=1e-4)


def test_seed_refuses_a_prehistory_ending_just_before_t0():
    # inside the end-time tolerance, but with no state at t0
    h = inertial_history(ParticleSpec(1.0, 0.5, 0.5, "short"), [0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0], -5.0, -5e-13, 11)
    with pytest.raises(ValueError, match="ends at -5e-13, expected t0=0.0"):
        seed(prehistories=[h])


def test_system_state_reads_its_light_speed_from_the_histories():
    pre = inertial_history(ParticleSpec(1.0, 0.5, 0.5, "c2"), [0.0, 0.0, 0.0],
                           [0.6, 0.0, 0.0], -5.0, 0.0, 16, c=2.0)
    seeded = seed(prehistories=[pre], dt=0.01, c=2.0)
    bare = SystemState(wl.copy_histories([pre]), 0.0, 0.01)
    step(seeded)
    step(bare)
    assert np.array_equal(bare.histories[0].table, seeded.histories[0].table)
    assert bare.c == seeded.c == 2.0


# -- stepping ------------------------------------------------------------------


def test_empty_prehistory_is_refused_as_a_query_beyond_present():
    spec = ParticleSpec(1.0, 0.5, 0.5, "empty")
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        seed(prehistories=[wl.WorldlineHistory(spec)])
    full, empty = wl.copy_histories([
        inertial_history(spec, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -5.0, 0.0, 11),
        wl.WorldlineHistory(spec)])
    row = np.hstack([0.1, 0.1, 0.1, np.zeros(3), [1.0, 0.0, 0.0, 0.0], np.zeros(4)])
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        with wl.staged([full, empty], [row, row]):
            pass
    assert len(full) == 11
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        cn.FrozenHistoryContext([full, empty], ExternalFieldModel.none(), 0.0)


def test_writes_to_histories_in_several_stores_are_refused():
    # two histories made apart, each in a store of its own
    hs = [inertial_history(ParticleSpec(1.0, 0.1, 0.5, label), [x, 0.0, 0.0], [0.0, 0.0, 0.0],
                           -5.0, 0.0, 16) for label, x in (("a", -1.0), ("b", 1.0))]
    st = SystemState(hs, 0.0, 0.05)
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


@pytest.fixture
def lorentz_only(monkeypatch):
    """Every step's force the external Lorentz force (q/c) F_ext u alone,
    as on test charges, and no root batch made: the stand-in batch gives
    the diagnostics the external potentials and zero delays."""
    def lorentz(histories, now, external, mode, prev=None):
        n = len(histories)
        q, m0 = np.array([(h.spec.q, h.spec.m0) for h in histories]).T
        f = (q / histories[0].c)[:, None] * (external.faraday(now.r) @ now.u[:, :, None])[:, :, 0]
        return f, (SimpleNamespace(own=np.zeros((n, n), dtype=np.intp), obs_q=q, obs_m0=m0),
                   SimpleNamespace(t_ret=np.zeros(1)))

    monkeypatch.setattr(dyn, "total_faraday", lorentz)
    monkeypatch.setattr(dyn, "_add_potentials", lambda A, plan, roots: A)


def test_magnetic_orbit_speed_and_constraint(lorentz_only):
    spec = ParticleSpec(1.0, 1.0, 0.5, "orb")
    B = 0.5
    v0 = 0.3
    st = seed([spec], [[0, 0, 0]], [[v0, 0, 0]], dt=0.01,
              external=ExternalFieldModel.uniform(B=(0.0, 0.0, B)))
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


def test_static_pair_initial_force_matches_closed_form(total_force):
    d, q1, q2, s1, s2, m0 = 2.0, 1.0, -0.6, 0.5, 0.7, 1.3
    specs = [ParticleSpec(m0, q1, s1, "one"), ParticleSpec(m0, q2, s2, "two")]
    st = seed(specs, [[-d / 2, 0, 0], [d / 2, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    mag = d * ((d * d + s1 * s1) ** -1.5 + (d * d + s2 * s2) ** -1.5)
    f, _, bound = total_force(st.histories, wl.gather(st.histories, [0, 1], [0.0, 0.0]),
                                 st.external)
    for i, sgn in ((0, -1.0), (1, 1.0)):
        h, other = st.histories[i], st.histories[1 - i]
        smp = h.state_at_time(0.0)
        # the single-term oracle: (q/c) (self + binary tensor) @ u
        F = fl.self_faraday(h, 0.0).matrix + fl.binary_faraday(
            other, smp.r, h.spec.sigma, other.spec.sigma).matrix
        assert np.all(np.abs(f[i] - (h.spec.q / st.c) * (F @ smp.u)) <= bound[i])
        dudt = raise_index(f[i]) / (smp.u[0] * m0)
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


def test_m_hat_is_each_index_pairs_own_sum_bit_for_bit(monkeypatch):
    # nine particles: numpy adds fewer than eight terms one at a time, so
    # only eight or more tell summation orders apart
    rng = np.random.default_rng(4)
    n = 9
    specs = [ParticleSpec(1.0 + 0.1 * k, 0.2 * (-1) ** k, 0.5, f"p{k}") for k in range(n)]
    st = seed(specs, 4.0 * rng.normal(size=(n, 3)), 0.1 * rng.normal(size=(n, 3)), t0=1.3)
    now = wl.gather(st.histories, np.arange(n), np.full(n, st.t_now))
    A = rng.normal(size=(n, 4))
    monkeypatch.setattr(dyn, "_add_potentials", lambda *args: A)
    rec = DIAGNOSE(st, now, fl.total_faraday(st.histories, now, st.external)[1], 0.0,
                   np.zeros(n))
    q, m0 = np.array([(s.q, s.m0) for s in specs]).T
    P = m0[:, None] * lower(now.u) + q[:, None] * A
    r_low = lower(now.r)
    want = [float(np.sum(r_low[:, mu] * P[:, nu] - r_low[:, nu] * P[:, mu]))
            for mu, nu in cn._IDX_PAIRS]
    assert np.array_equal(rec.m_hat, want)


@pytest.mark.parametrize("tensor, message", [
    (0.1 * np.eye(4), "matrix is not antisymmetric"),
    (np.full((4, 4), np.nan), "tensor entries must be finite")])
def test_a_user_field_tensor_is_checked_in_every_step(tensor, message):
    ext = ExternalFieldModel.analytic(lambda r: tensor, lambda r: np.zeros(4))
    st = seed([ParticleSpec(1.0, 0.5, 0.4, "u")], [[0, 0, 0]], [[0, 0, 0]], dt=0.05,
              external=ext)
    with pytest.raises(ValueError, match=message):
        step(st)


def test_run_ends_exactly_on_t_end():
    # 240 steps of dt = 0.01 added one at a time end at 2.399999999999993
    st = seed([ParticleSpec(1.0, 0.0, 0.5, "free")], [[0, 0, 0]], [[0.3, 0, 0]], dt=0.01)
    run(st, 2.4)
    assert st.t_now == 2.4 and len(st.diagnostics) == 240
    assert st.histories[0].state_at_time(2.4).t == 2.4
    with pytest.raises(ValueError, match="does not divide .* into whole steps"):
        run(st, 2.425)


def test_partial_output_preserved_on_failure(tmp_path, lorentz_only):
    spec = ParticleSpec(0.05, 5.0, 0.4, "hot")
    st = seed([spec], [[0, 0, 0]], [[0, 0, 0]], dt=0.5,
              external=ExternalFieldModel.uniform(E=(50.0, 0.0, 0.0)))
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


@pytest.fixture(scope="module")
def pulse():
    return demo_locally_isolated()


def test_demo_locally_isolated_pulse(pulse):
    assert pulse["post_switch_max_self_force"] > 1e-12
    f1, f2 = pulse["force_pair"]
    assert np.array_equal(4.0 * f1, f2)
    assert pulse["q_doubling_ratio"] == 4.0


def test_post_switch_self_force_is_the_per_record_solve_bit_for_bit(pulse):
    st = pulse["state"]
    h, spec = st.histories[0], st.histories[0].spec
    post = [r.t for r in st.diagnostics.records if r.t > dyn.PULSE_SWITCH + 2 * dyn.PULSE_DT]
    forces = [(spec.q / st.c) * (fl.self_faraday(h, t).matrix @ h.state_at_time(t).u)
              for t in post]
    assert len(forces) > 20
    assert pulse["post_switch_max_self_force"] == max(float(np.linalg.norm(f)) for f in forces)
    # the probe record's force too
    assert np.array_equal(pulse["force_pair"][0], forces[len(forces) // 2])


def test_demo_locally_isolated_no_pulse_control():
    rep = demo_locally_isolated(e_amp=0.0)
    assert rep["post_switch_max_self_force"] < 1e-12


def test_demo_globally_isolated():
    rep = demo_globally_isolated()
    assert rep["mirror_residual"] < 1e-9


def test_a_neutral_pair_keeps_its_momentum_and_mirror_symmetry():
    specs = [ParticleSpec(1.0, 0.0, 0.8, "left"), ParticleSpec(1.0, 0.0, 0.8, "right")]
    st = seed(specs, [[-1.5, 0, 0], [1.5, 0, 0]], [[0, 0, 0], [0, 0, 0]], dt=0.05)
    run(st, 1.0)
    records = st.diagnostics.records
    assert np.max(np.abs(records[-1].p_hat - records[0].p_hat)) < 1e-14
    ts = [r.t for r in records]
    h1, h2 = st.histories
    assert np.max(np.abs(h1.states_at(ts).r[:, 1:] + h2.states_at(ts).r[:, 1:])) < 1e-14


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
    assert len({id(h._bank) for h in st.histories} | {id(pre._bank)}) == 2
    assert np.array_equal(st.histories[0].table, pre.table)


def test_seed_leaves_a_supplied_prehistory_as_it_is():
    pre = inertial_history(ParticleSpec(1.0, 0.3, 0.5, "a"), [-1.0, 0, 0], [0.1, 0, 0],
                           -6.0, 0.0, 40)
    table = pre.table
    st = seed([None, ParticleSpec(1.0, -0.3, 0.6, "b")], [None, [1.0, 0, 0]],
              [None, [0, 0, 0]], prehistories=[pre, None], dt=0.05)
    run(st, 0.25)
    assert len(st.histories[0]) == 45
    assert len(pre) == 40 and np.array_equal(pre.table, table)


def test_seed_refuses_a_set_naming_one_history_twice():
    pre = inertial_history(ParticleSpec(1.0, 0.3, 0.5, "a"), [-1.0, 0, 0], [0.1, 0, 0],
                           -6.0, 0.0, 40)
    with pytest.raises(ValueError, match="name each history once"):
        seed(prehistories=[pre, pre], dt=0.05)


def test_a_prehistory_seeded_twice_is_read_from_where_it_lives():
    pre = inertial_history(ParticleSpec(1.0, 0.3, 0.5, "a"), [-1.0, 0, 0], [0.1, 0, 0],
                           -6.0, 0.0, 40)
    args = ([ParticleSpec(1.0, -0.3, 0.6, "b"), None], [[1.0, 0, 0], None], [[0, 0, 0], None])
    first = seed(*args, prehistories=[None, pre], dt=0.05)
    second = seed(*args, prehistories=[None, pre], dt=0.05)  # copies pre once more
    step(second)
    t = pre.t_latest
    got = wl.gather(first.histories, [0, 1], [0.0, t])
    assert got.t[1] == t and np.array_equal(got.r[1], pre.state_at_time(t).r)


def test_a_dropped_store_is_freed_without_the_garbage_collector():
    # a history holds its store and a store holds none of its histories,
    # so no cycle keeps a dropped system's nodes alive
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
    # the root iterations gather through retardation._read
    monkeypatch.setattr(ret, "_read", counted("gather", ret._read))
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
    # the root iterations' gathers only: the present is handed in
    assert max(e["gather"] for e in per_eval) <= 2
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
        calls.append(len(args[1].t))
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
    # a radius below 2 c dt but above c dt: no root reaches into the step,
    # so no query reads the final stage, and it is reused all the same
    small = seed([ParticleSpec(1.0, 0.1, 0.03, "small")], [[0, 0, 0]], [[0.1, 0, 0]],
                 dt=0.02)
    assert per_step(small) == [5, 4, 4]
    assert set(calls[:13]) == {6} and set(calls[13:]) == {1}


def test_no_force_evaluation_gathers_at_its_own_time(monkeypatch):
    # a step holds the states of every force evaluation's present (base,
    # staged or committed rows), so inside an evaluation the histories are
    # only queried at retarded times, never at a stage time of the step
    st = ring6()
    inside, gathered = [False], []

    def gather(histories, src, ts):
        if inside[0]:
            gathered.append(np.asarray(ts, dtype=np.float64).reshape(-1))
        return real_gather(histories, src, ts)

    def evaluation(*args, **kwargs):
        inside[0] = True
        try:
            return real_faraday(*args, **kwargs)
        finally:
            inside[0] = False

    def read(histories, src, ts, kept=None):
        # the root iterations' gathers, each time read off a kept segment too
        if inside[0]:
            gathered.append(np.asarray(ts, dtype=np.float64).reshape(-1))
        return real_read(histories, src, ts, kept)

    real_gather, real_read, real_faraday = wl.gather, ret._read, dyn.total_faraday
    for mod in (wl, ret, fl, dyn):
        monkeypatch.setattr(mod, "gather", gather)
    monkeypatch.setattr(ret, "_read", read)
    monkeypatch.setattr(dyn, "total_faraday", evaluation)
    for _ in range(3):
        t, dt, before = st.t_now, st.dt, len(gathered)
        step(st)
        stage_times = [t, t + dt / 2, t + dt]
        assert len(gathered) > before
        assert not any(np.isin(ts, stage_times).any() for ts in gathered[before:])


def _wide_step_pair():
    # 2 c dt above the smaller radius, c dt below it
    return static_pair(q1=0.1, q2=-0.1, s1=0.03, s2=0.5, dt=0.02)


def _asymptotic_ring6():
    st = ring6()
    st.mode = SelfForceMode.ASYMPTOTIC
    return st


def _triple(sigmas, charges=(0.1, -0.12), mode=SelfForceMode.EXACT):
    """Two charges and a neutral particle at distances 0.5 to 0.64, in a
    uniform external field, stepped at dt = 0.02."""
    specs = [ParticleSpec(1.0, charges[0], sigmas[0], "a"), ParticleSpec(1.0, 0.0, sigmas[1], "n"),
             ParticleSpec(1.2, charges[1], sigmas[2], "b")]
    return seed(specs, [[-0.5, 0, 0], [0, 0.4, 0], [0.5, 0, 0]],
                [[0, 0.1, 0], [0.1, 0, 0], [0, -0.1, 0]], dt=0.02, mode=mode,
                external=ExternalFieldModel.uniform(E=(0.2, 0.0, 0.1)))


def _small_radii():
    # radii below c dt: the self roots of the last stages fall inside the
    # step, so those stages are read
    return _triple((0.01, 0.012, 0.011), (0.05, -0.06))


def _detached(histories):
    """Copies of histories in a store of their own, rebuilt from their
    tables: the committed nodes, with the same bits, and no open stage."""
    refs = wl.copy_histories([wl.WorldlineHistory(h.spec, h.c) for h in histories])
    for ref, h in zip(refs, histories):
        ref.extend(h.table)
    return refs


@pytest.mark.parametrize("make, reads", [(ring6, False), (_wide_step_pair, False),
                                         (_asymptotic_ring6, False), (_small_radii, True)],
                         ids=["exact", "exact_wide_step", "asymptotic", "exact_read"])
def test_each_force_evaluation_is_handed_the_states_a_gather_returns(monkeypatch, make,
                                                                     reads):
    # the states a step hands total_faraday equal, bit for bit, those a
    # gather of every history at the stage time returns. A gather past
    # the committed nodes would read the step's stage, so it is made on
    # detached copies with the same rows staged
    st = make()
    seen = []

    def checked(histories, now, *args, **kwargs):
        n = len(histories)
        rows = np.column_stack((now.t, now.s, now.r, now.u, now.a))
        refs = _detached(histories)
        ahead = now.t[0] > refs[0].t_latest
        with wl.staged(refs, rows) if ahead else contextlib.nullcontext():
            want = wl.gather(refs, np.arange(n), np.full(n, now.t[0]))
        seen.append(now.t[0])
        for name in ("t", "s", "r", "u", "a"):
            got, ref = getattr(now, name), getattr(want, name)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
        return real(histories, now, *args, **kwargs)

    real = dyn.total_faraday
    monkeypatch.setattr(dyn, "total_faraday", checked)
    want = []
    for k in range(2):
        t, dt = st.t_now, st.dt
        step(st)
        # the first step evaluates at its base; later ones reuse the
        # last step's step-end batch there, which is the final stage's
        # unless a query read that stage
        want += [t] * (k == 0) + [t + dt / 2] * 2 + [t + dt] * (3 if reads else 2)
    assert seen == want


DIAGNOSE = dyn._diagnose
# node table columns t, a0, a1, a2, a3
T_A = [0, 10, 11, 12, 13]


def count_batches(monkeypatch):
    """Record every solve_delays batch as (histories, src, obs, sigma,
    last, seed, roots), last holding each history's latest node at call
    time as one row (t, a0, a1, a2, a3), seed the first iterates it was
    handed (None for a cold batch) and roots the batch solved, and the
    number of batches solved inside each _diagnose call."""
    batches, diagnose = [], []

    def solve(histories, src, events, sigma, obs=-1, **kwargs):
        m = len(np.reshape(events, (-1, 4)))
        last = np.array([h.table[-1, T_A] for h in histories])
        roots = real_solve(histories, src, events, sigma, obs, **kwargs)
        batches.append((tuple(histories), *(np.broadcast_to(x, m).tolist()
                                            for x in (src, obs, sigma)), last,
                        kwargs.get("seed"), roots))
        return roots

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
    """Record every stage of the step as its (N, 14) rows and the stage
    opened, whose read is final once its block is left."""
    stages = []

    @contextlib.contextmanager
    def staged(histories, block):
        with real(histories, block) as stage:
            stages.append((np.array(block), stage))
            yield stage

    real = dyn.staged
    monkeypatch.setattr(dyn, "staged", staged)
    return stages


def committed_last(st):
    """Each history's latest committed node as (t, a0, a1, a2, a3)."""
    return np.array([h.table[-1, T_A] for h in st.histories])


def fresh_record(st):
    """The step record at t_now from a cold batch solved afresh on the
    committed histories, whose potentials and delays are first checked,
    bit for bit, against effective_potentials and one single-root solve
    per delay."""
    hs, n = st.histories, st.n
    now = wl.gather(hs, np.arange(n), np.full(n, st.t_now))
    plan, roots = batch = fl.total_faraday(hs, now, st.external, st.mode)[1]
    A = cn.effective_potentials(hs, st.external, range(n), now.r)
    tau = [[ret.self_delay(h, st.t_now).t_ret]
           + [ret.pair_delay(hj, now.r[i], h.spec.sigma).t_ret
              for j, hj in enumerate(hs) if j != i] for i, h in enumerate(hs)]
    assert np.array_equal(ret._add_potentials(st.external.potential(now.r), plan, roots), A)
    assert np.array_equal(roots.t_ret[plan.own], tau)
    return DIAGNOSE(st, now, batch, 0.0, np.zeros(n))


RECORDED = ("t", "constraint_err", "h_eff", "p_hat", "m_hat", "self_delays", "pair_delays",
            "local_error")


def assert_served_by_the_step_end_batch(st):
    """The last step record is, bit for bit, the one _diagnose reads off
    the step-end batch cached in st.last_eval."""
    (t, _), (now, _, _, batch) = st.last_eval
    got = st.diagnostics.records[-1]
    want = DIAGNOSE(st, now, batch, 0.0, got.local_error)
    assert t == st.t_now
    for name in RECORDED:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_records_agree(got, want, rel=1e-12):
    """Each reported quantity of two step records agrees within rel of
    its own size."""
    for name in ("h_eff", "p_hat", "m_hat", "self_delays", "pair_delays"):
        x, y = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(x - y) <= rel * np.max(np.abs(x))), name


def assert_agrees_with_a_cold_solve(st):
    """The last step record agrees with fresh_record's to the root
    tolerance. That is about 1e-12 (1 + (c tau)^2) on the squared delay
    equation, so it lets a delay tau move by 1e-12 (1 + 1 / (c tau)^2)
    of itself, and the record's quantities with the shortest delay."""
    got = st.diagnostics.records[-1]
    rel = 1e-12 * (1.0 + 1.0 / (st.c * np.min(got.self_delays)) ** 2)
    assert_records_agree(got, fresh_record(st), rel)


def assert_runs_agree(a, b):
    """Two runs of one system that started their roots from different
    first iterates differ in the last bits and agree to the root
    tolerance: each of t, s, r, u and a relative to its own size (a
    component such as a^0 = (u_vec . a_vec) / u^0 sits far below the
    vector it is part of), and each step record."""
    assert not all(np.array_equal(x.table, y.table) for x, y in zip(a.histories, b.histories))
    groups = [slice(0, 1), slice(1, 2), slice(2, 6), slice(6, 10), slice(10, 14)]
    for x, y in zip(a.histories, b.histories):
        ta, tb = x.table, y.table
        assert ta.shape == tb.shape
        for g in groups:
            assert np.all(np.abs(ta[:, g] - tb[:, g]) <= 1e-12 * np.max(np.abs(ta[:, g]))), g
    assert len(a.diagnostics) == len(b.diagnostics)
    for got, want in zip(a.diagnostics.records, b.diagnostics.records):
        assert_records_agree(got, want)


def assert_steps_on_like(a, b):
    """Two runs whose tables are equal bit for bit, and so are the
    records of the steps both recorded (the last ones of the longer)."""
    for x, y in zip(a.histories, b.histories):
        assert np.array_equal(x.table, y.table)
    n = min(len(a.diagnostics), len(b.diagnostics))
    assert n
    for got, want in zip(a.diagnostics.records[-n:], b.diagnostics.records[-n:]):
        for name in RECORDED:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def seeded_from(seed, roots, prev) -> bool:
    """Whether roots were solved from the first iterates the roots prev
    give their observer events (retardation._first_iterates): a warm
    batch is handed prev as its seed, of the same rows, and the solver
    makes them from it."""
    return seed is prev and np.array_equal(prev.src, roots.src) and np.array_equal(
        prev.sigma, roots.sigma)


@pytest.mark.parametrize("mode, sigmas", [(SelfForceMode.EXACT, (0.01, 0.012, 0.011)),
                                          (SelfForceMode.ASYMPTOTIC, (0.5, 0.6, 0.55))])
def test_step_end_batch_without_reuse_serves_the_diagnostics(monkeypatch, mode, sigmas):
    # exact radii below c dt: queries of the final stage read its staged
    # node, so the step-end batch is solved again on the committed
    # histories, from the final batch. Asymptotic radii and distances
    # above 2 c dt: no query reads the final stage, and its batch is the
    # step-end batch. Either way the diagnostics are read off the
    # step-end batch and agree with a cold solve's to the root tolerance
    read = mode == SelfForceMode.EXACT
    st = _triple(sigmas, (0.05, -0.06) if read else (0.1, -0.12), mode)
    batches, diagnose = count_batches(monkeypatch)
    stages = record_staged(monkeypatch)
    steps = []
    for _ in range(4):
        before, t = len(batches), st.t_now
        step(st)
        steps.append(batches[before:])
        assert stages[-1][1].read == read
        # the final stage's batch starts on the committed node at t (its
        # stage, when read, is written by a query of the iteration); a
        # step-end batch solved again starts on the node committed at t_now
        final = steps[-1][-1 - read]
        assert np.array_equal(final[4][:, 0], np.full(st.n, t))
        end = steps[-1][-1]
        assert st.last_eval[1][3][1] is end[6]
        if read:
            assert np.array_equal(end[4], committed_last(st))
            assert seeded_from(*end[5:], final[6])
        assert_served_by_the_step_end_batch(st)
        assert_agrees_with_a_cold_solve(st)
    assert [len(b) for b in steps] == [5 + read] + [4 + read] * 3
    # only the first evaluation of the state starts cold
    assert [b[5] is None for b in sum(steps, [])] == [True] + [False] * (16 + 4 * read)
    assert diagnose == [0, 0, 0, 0]
    assert len(stages) == 16


@pytest.mark.parametrize("make, read", [(static_pair, False), (_wide_step_pair, True)],
                         ids=["first_same_as_last", "wide_step"])
def test_failed_stage_leaves_no_staged_node(monkeypatch, tmp_path, make, read):
    st = make()
    step(st)
    tables = [h.table for h in st.histories]
    staged_lens = []

    def failing(histories, now, *args, **kwargs):
        # the reused step-end batch serves the first evaluation, so the
        # first call is the second stage's, inside its staged block; a
        # gather at the stage time reads the stage, which writes it
        if read:
            wl.gather(histories, np.arange(len(histories)), now.t)
        staged_lens.append([len(h) for h in histories])
        raise RuntimeError("stage failure")

    monkeypatch.setattr(dyn, "total_faraday", failing)
    with pytest.raises(RuntimeError, match="stage failure"):
        run(st, st.t_now + 3 * st.dt, trajectory_dir=tmp_path)
    assert staged_lens == [[len(t) + read for t in tables]]
    for h, table in zip(st.histories, tables):
        assert len(h) == len(table) and h.t_latest == table[-1, 0]
        assert np.array_equal(h.table, table)
        header, lines = wl.read_table(tmp_path / f"trajectory_{h.spec.label}.csv")
        exported = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        assert header == wl.CSV_HEADER and np.array_equal(exported, table)


@pytest.mark.parametrize("make, writes", [(static_pair, 0), (_wide_step_pair, 0),
                                          (_small_radii, 2)],
                         ids=["first_same_as_last", "wide_step", "read"])
def test_a_stage_node_is_written_only_where_a_query_can_read_it(monkeypatch, make, writes):
    # a stage's node is written when a query first reads past the
    # committed nodes, and only then: with every radius above c dt no
    # root of a stage reaches into the step, and nothing is written;
    # radii below it read (and write) stage 4 and the final stage. Either
    # way a step commits once
    st = make()
    stage_writes = []

    def extend(bank, *args, **kwargs):
        stage_writes.append(bank._stage is not None)
        return real(bank, *args, **kwargs)

    real = wl.HistoryBank._extend
    monkeypatch.setattr(wl.HistoryBank, "_extend", extend)
    stages = record_staged(monkeypatch)
    per_step = []
    for _ in range(3):
        before, first = len(stage_writes), len(stages)
        step(st)
        per_step.append(sorted(stage_writes[before:]))
        assert sum(stage.read for _, stage in stages[first:]) == writes
    assert per_step == [[False] + [True] * writes] * 3


def test_a_non_finite_stage_is_refused_before_it_is_evaluated(monkeypatch):
    # staged checks the stage rows before they are evaluated: a NaN
    # force in the first evaluation gives the second stage a NaN s
    st = static_pair()
    tables = [h.table for h in st.histories]
    calls = []

    def nan_first(*args, **kwargs):
        f, batch = real(*args, **kwargs)
        calls.append(f)
        return (np.full_like(f, np.nan) if len(calls) == 1 else f), batch

    real = dyn.total_faraday
    monkeypatch.setattr(dyn, "total_faraday", nan_first)
    with pytest.raises(ValueError, match="s must be a finite number"):
        step(st)
    assert len(calls) == 1  # refused before the second stage is evaluated
    assert all(np.array_equal(h.table, table) for h, table in zip(st.histories, tables))


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


@pytest.mark.parametrize("make", [ring6, _asymptotic_ring6, lambda: _triple((0.5, 0.6, 0.55)),
                                  _small_radii],
                         ids=["exact", "asymptotic", "neutral_trio", "neutral_trio_read"])
def test_a_step_chains_one_plan(monkeypatch, make):
    # every evaluation solves the system's one root plan: the stage
    # batches, the final batch and a step-end batch solved again (the
    # read trio's) hold the same (source, observer, sigma) rows in the same
    # order, each neutral source's sigma_i cone included
    st = make()
    n = st.n
    plan = ret._root_plan(tuple(st.specs), tuple(range(n)), st.mode, st.c)
    batches, diagnose = count_batches(monkeypatch)
    for _ in range(3):
        step(st)
        assert st.last_eval[1][3][0] is plan
    assert {tuple(map(tuple, b[1:4])) for b in batches} == {
        (tuple(plan.src.tolist()), tuple(plan.obs.tolist()), tuple(plan.sigma.tolist()))}
    assert sorted({(j, o) for j, o in zip(plan.src.tolist(), plan.obs.tolist())}) == [
        (j, o) for j in range(n) for o in range(n)]
    assert diagnose == [0, 0, 0]
    # the diagnostics still report the neutral particle's delays
    rec = st.diagnostics.records[-1]
    assert np.all(rec.self_delays > 0.0) and np.all(rec.pair_delays > 0.0)


def _curved_small_pair():
    # radii just above 2 c dt: after three steps every root lands on the
    # curved, integrated part of the histories
    specs = [ParticleSpec(1.0, 0.1, 0.05, "a"), ParticleSpec(1.2, -0.1, 0.06, "b")]
    return seed(specs, [[-0.3, 0, 0], [0.3, 0.1, 0]], [[0, 0.1, 0], [0.05, 0, 0]],
                dt=0.02, external=ExternalFieldModel.uniform(E=(0.3, 0.0, 0.1)))


def test_a_system_keeps_its_plan_while_other_plans_are_made():
    # a plan is one object per arguments for the life of the process, so
    # plans made for other systems between two steps leave the next
    # steps' warm starts warm: the tables equal an uninterrupted run's
    interrupted, straight = _curved_small_pair(), _curved_small_pair()
    for _ in range(12):
        step(interrupted)
    plan = interrupted.last_eval[1][3][0]
    for k in range(70):
        ret._root_plan((ParticleSpec(1.0, 0.1, 0.2 + 0.01 * k, f"o{k}"),), (0,),
                       SelfForceMode.EXACT)
    for _ in range(3):
        step(interrupted)
    assert interrupted.last_eval[1][3][0] is plan
    for _ in range(15):
        step(straight)
    for a, b in zip(interrupted.histories, straight.histories):
        assert np.array_equal(a.table, b.table)


def test_a_query_inside_the_step_leads_to_a_fresh_step_end_batch(monkeypatch):
    # 2 c dt below both radii: no root of the final stage reaches into the
    # step. Should a query of its batch do so all the same (here one extra
    # gather inside (t, t1)), it reads the stage and the step-end batch is
    # solved again on the committed histories, from the final batch, not
    # taken from the stage
    st = static_pair()
    at_t1 = []

    def solve(histories, src, events, sigma, obs=-1, now=None, seed=None):
        roots = real(histories, src, events, sigma, obs, now, seed)
        # the batches at the step's end: stage 4's, the final stage's,
        # then the step-end batch
        if np.all(np.reshape(events, (-1, 4))[:, 0] > t + 0.75 * st.dt):
            at_t1.append((seed, roots))
            if len(at_t1) == 2:
                wl.gather(histories, 0, [t + 0.5 * st.dt])
        return roots

    real = ret.solve_delays
    monkeypatch.setattr(ret, "solve_delays", solve)
    for _ in range(3):
        t = st.t_now
        at_t1.clear()
        step(st)
        assert len(at_t1) == 3
        assert seeded_from(*at_t1[1], at_t1[0][1]) and seeded_from(*at_t1[2], at_t1[1][1])
        assert st.last_eval[1][3][1] is at_t1[2][1]
        assert_served_by_the_step_end_batch(st)
        assert_agrees_with_a_cold_solve(st)


# -- warm root batches -------------------------------------------------------------


def _orbit(center, amp, om, phase):
    """x, dx/dt and d^2x/dt^2 of a small bounded orbit about center."""
    center, amp = np.asarray(center, dtype=float), np.asarray(amp, dtype=float)
    return (lambda t: center + amp * np.sin(om * t + phase),
            lambda t: amp * om * np.cos(om * t + phase),
            lambda t: -amp * om * om * np.sin(om * t + phase))


def curved_pair(mode=SelfForceMode.EXACT, dt=0.005):
    """The run_pair particles restarted from curved 401-node prehistories,
    as the benchmark restarts them; u is renormalized in asymptotic mode,
    whose force leaves the mass shell (ROADMAP item 5)."""
    t_nodes = np.linspace(-4.0, 0.0, 401)
    hs = [history_from_kinematics(ParticleSpec(m0, q, sigma, label), t_nodes,
                                  *_orbit(center, amp, om, phase))
          for label, m0, q, sigma, center, amp, om, phase in (
              ("left", 1.0, 0.5, 0.8, (-1.5, 0.0, 0.0), (0.04, 0.03, 0.02), 0.9, 0.3),
              ("right", 1.5, -0.4, 0.7, (1.5, 0.3, 0.0), (0.03, 0.05, 0.01), 1.2, 1.1))]
    return seed(prehistories=hs, dt=dt, mode=mode,
                renormalize_u=mode == SelfForceMode.ASYMPTOTIC)


MODES = pytest.mark.parametrize("mode", [SelfForceMode.EXACT, SelfForceMode.ASYMPTOTIC],
                                ids=["exact", "asymptotic"])


@pytest.mark.parametrize("make", [curved_pair, lambda: curved_pair(SelfForceMode.ASYMPTOTIC),
                                  _small_radii], ids=["exact", "asymptotic", "exact_read"])
def test_every_warm_root_meets_its_tolerance_under_a_fresh_gather(monkeypatch, make):
    # the bench's residual gate does not see the batched solver, so each
    # root of a warm batch is re-evaluated here, inside the stage it saw.
    # Radii below c dt (exact_read) read the final stage, so the step-end
    # batch is solved again, warm, on the committed histories
    st = make()
    stages = record_staged(monkeypatch)
    worst = []

    def solve(histories, src, events, sigma, obs=-1, now=None, seed=None):
        roots = real(histories, src, events, sigma, obs, now, seed)
        if seed is not None:
            c = histories[0].c
            ev = wl.gather(histories, roots.src, now.t - roots.t_ret)
            assert ev.r.tobytes() == roots.source.r.tobytes()
            dx = roots.events[:, 1:] - ev.r[:, 1:]
            f = (c * roots.t_ret) ** 2 - ret._dot(dx, dx) - roots.sigma * roots.sigma
            d = roots.events[:, 1:] - now.r[:, 1:]
            worst.append(np.max(np.abs(f) / ret.root_tolerance(ret._dot(d, d), roots.sigma)))
        return roots

    real = ret.solve_delays
    monkeypatch.setattr(ret, "solve_delays", solve)
    for _ in range(20):
        step(st)
    # every evaluation but the first starts warm: stages 2 to 4, the
    # final stage and each step-end batch solved again
    reads = sum(stage.read for _, stage in stages[3::4])
    assert (reads >= 1) == (make is _small_radii)
    assert len(worst) == 20 * 4 + reads
    assert max(worst) <= 1.0


def test_a_step_makes_at_most_six_gathers_after_the_first(monkeypatch):
    # every evaluation but the state's first starts from the one before:
    # 16 gathers per step cold
    st = curved_pair()
    calls = [0]

    def read(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    real = ret._read  # the root iterations' gather
    monkeypatch.setattr(ret, "_read", read)
    per_step = []
    for _ in range(6):
        calls[0] = 0
        step(st)
        per_step.append(calls[0])
    # the first step also solves its first evaluation, cold
    assert max(per_step[1:]) <= 6 and per_step[0] <= 10


@MODES
def test_warm_and_cold_batches_agree(monkeypatch, mode):
    warm, cold = curved_pair(mode), curved_pair(mode)
    for _ in range(21):
        step(warm)
    monkeypatch.setattr(ret, "_first_iterates",
                        lambda prev, events, t: np.full(len(events), np.nan))
    for _ in range(21):
        step(cold)
    assert_runs_agree(warm, cold)


@MODES
def test_a_state_that_drops_its_cached_batch_agrees_to_root_tolerance(mode):
    # only a state's first evaluation starts cold, so a state whose
    # last_eval is dropped starts each step's roots cold again: its run
    # moves in the last bits and agrees with the uninterrupted one as a
    # cold run agrees with a warm one
    kept, dropped = curved_pair(mode), curved_pair(mode)
    for _ in range(21):
        step(kept)
        assert kept.last_eval is not None
        dropped.last_eval = None
        step(dropped)
    assert_runs_agree(kept, dropped)


def _cached_bytes(st):
    """The bytes of every array of the states, slopes and step-end batch
    cached in st.last_eval."""
    now, kx, ku, (_, roots) = st.last_eval[1]
    events = [getattr(x, name) for x in (now, roots.source) for name in ("t", "s", "r", "u", "a")]
    arrays = [*events, kx, ku, roots.src, roots.obs, roots.events, roots.sigma, roots.t_ret,
              roots.s_ret, roots.residual]
    return [np.asarray(x).tobytes() for x in arrays]


@MODES
def test_a_copy_made_mid_run_steps_on_bit_for_bit_like_its_original(monkeypatch, mode):
    # copy_state carries the step grid and the cached step-end batch,
    # which no step writes into: the copy steps on as its original does.
    # The cache holds for t_now whatever the step, so a copy with a new
    # dt starts warm too
    st = curved_pair(mode)
    for _ in range(5):
        step(st)
    cached = _cached_bytes(st)
    dup = copy_state(st)
    assert dup.last_eval is st.last_eval
    for _ in range(10):
        step(dup)
    assert _cached_bytes(st) == cached
    for _ in range(10):
        step(st)
    assert_steps_on_like(st, dup)
    halves = [copy_state(x, dt=x.dt / 2) for x in (st, dup)]
    batches, _ = count_batches(monkeypatch)
    for half in halves:
        before = len(batches)
        for _ in range(10):
            step(half)
        # the first step reuses the cached batch at its start
        assert len(batches) - before == 10 * 4
    assert halves[0].t_now == st.t_now + 10 * st.dt / 2
    assert_steps_on_like(*halves)


def test_a_new_dt_on_a_stepped_state_starts_a_new_grid_at_t_now():
    # the grid holds for the dt it was laid with: a state whose dt is
    # assigned after some steps steps on from t_now on the new dt, and
    # does not end its step on the old grid, before t_now
    st = curved_pair()
    for _ in range(5):
        step(st)
    t5 = st.t_now
    st.dt /= 2
    step(st)
    assert st.t_now == t5 + st.dt == pytest.approx(0.0275, abs=1e-15)
    assert st.grid == (t5, 1, st.dt)
    step(st)
    assert st.t_now == t5 + 2 * st.dt


# -- local error estimate ----------------------------------------------------------


@pytest.fixture(scope="module")
def run_pair_errors():
    """{dt: (t, local_error)} of configs/run_pair.yaml run at dt = 0.02
    and 0.01: each step's end time and its estimate per particle."""
    from retnbody import harness

    cfg = harness.load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                           "run_pair.yaml"))
    out = {}
    for dt in (0.02, 0.01):
        st = harness.build_state(replace(cfg, dt=dt))
        run(st, cfg.t_end)
        recs = st.diagnostics.records
        out[dt] = (np.array([r.t for r in recs]), np.array([r.local_error for r in recs]))
    return out


def test_the_local_error_estimate_falls_as_dt_to_the_fourth_where_the_forces_are_smooth(
        run_pair_errors):
    # before t0 + sigma/c of the smaller radius (0.7) every root lies on
    # the inertial prehistories, so the forces are smooth and the
    # estimate falls as dt^4 (16x per halving)
    (t2, e2), (t1, e1) = run_pair_errors[0.02], run_pair_errors[0.01]
    assert e2.shape == (50, 2) and e1.shape == (100, 2)
    assert np.all(e2 > 0.0) and np.all(e1 > 0.0)
    assert np.max(e2[t2 < 0.66]) >= 12.0 * np.max(e1[t1 < 0.66])


def test_the_local_error_estimate_peaks_where_a_self_root_crosses_t0(
        run_pair_errors):
    # the self root of right (sigma 0.7) crosses t0, where the
    # acceleration jumps, in the step ending at 0.72, and left's (sigma
    # 0.8) in the one ending at 0.82: there RK4 loses its order
    t, e = run_pair_errors[0.02]
    assert t[np.argsort(e.max(axis=1))[-2:]].tolist() == pytest.approx([0.72, 0.82])
    assert t[np.argmax(e, axis=0)].tolist() == pytest.approx([0.82, 0.72])
    assert np.min(e.max(axis=0)) > 100.0 * np.max(e[t < 0.66])


def test_renormalizing_u_of_a_non_positive_u_u_names_the_particle():
    # the run_pair charges at a quarter of their radii, in asymptotic
    # mode: the first-order self-force takes the right charge's u.u below
    # zero on the step from t = 0.86, where renormalizing u would take
    # its square root
    specs = [ParticleSpec(1.0, 0.5, 0.2, "left"), ParticleSpec(1.5, -0.4, 0.175, "right")]
    st = seed(specs, [[-1.5, 0, 0], [1.5, 0.3, 0]], [[0, 0, 0], [0, 0, 0]], dt=0.02,
              mode=SelfForceMode.ASYMPTOTIC, renormalize_u=True)
    with pytest.raises(wl.ConstraintViolation, match="u.u = -4.399e-01 is not positive") as err:
        run(st, 1.0)
    assert (err.value.particle, err.value.step, err.value.t) == ("right", 44, pytest.approx(0.86))
    assert st.t_now == pytest.approx(0.86) and len(st.diagnostics) == 43


def python_calls(fn) -> int:
    """The Python-level calls into the package's source files while fn
    runs: sys.setprofile call events whose code lives there, generator
    resumptions included."""
    root = os.path.dirname(dyn.__file__) + os.sep
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls[0]


# the Python-level calls one warm step of the exact curved pair makes; a
# change that adds calls to a step's fixed-cost paths raises it on purpose
STEP_CALLS = 252


def test_a_warm_step_keeps_its_call_budget():
    # a count, not a time: the same on every host and numpy version
    st = curved_pair()
    step(st)  # the first step starts cold
    assert python_calls(lambda: step(st)) <= STEP_CALLS
