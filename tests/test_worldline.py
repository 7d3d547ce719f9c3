import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retnbody import retardation as ret
from retnbody import worldline as wl


def sample(t, s, x3, u, a, c=1.0):
    """A node with the exact coordinate-time parametrization r^0 = c t."""
    return wl.WorldlineSample(t=float(t), s=float(s), r=np.r_[c * t, x3],
                              u=np.asarray(u, dtype=float), a=np.asarray(a, dtype=float))


def _udd(h, t):
    """u'' of h at one time, through the batched query."""
    return wl.u_dotdot([h], 0, [t])[0]


def make_inertial(beta=0.6, c=1.0, n=9, t1=4.0):
    spec = wl.ParticleSpec(m0=1.0, q=1.0, sigma=0.1, label="a")
    return wl.inertial_history(spec, np.zeros(3), np.array([beta * c, 0.0, 0.0]),
                               0.0, t1, n, c=c)


def sin_profile(A=0.3, Om=0.8, c=1.0):
    def x_fn(t):
        return np.array([A * np.sin(Om * t), 0.0, 0.0])

    def v_fn(t):
        return np.array([A * Om * np.cos(Om * t), 0.0, 0.0])

    def acc_fn(t):
        return np.array([-A * Om**2 * np.sin(Om * t), 0.0, 0.0])

    return x_fn, v_fn, acc_fn


class TestParticleSpec:
    def test_rejects_bad_mass_and_radius(self):
        with pytest.raises(ValueError):
            wl.ParticleSpec(m0=0.0, q=1.0, sigma=0.1)
        with pytest.raises(ValueError):
            wl.ParticleSpec(m0=1.0, q=1.0, sigma=-0.1)

    def test_zero_charge_accepted(self):
        assert wl.ParticleSpec(m0=1.0, q=0.0, sigma=0.1).q == 0.0


class TestAppend:
    def test_non_monotonic_time_rejected(self):
        h = make_inertial()
        last = h.samples[-1]
        dup = wl.WorldlineSample(t=last.t, s=last.s + 0.1, r=last.r,
                                 u=last.u, a=last.a)
        with pytest.raises(wl.NonMonotonicTime):
            h.append(dup)

    def test_constraint_violation_on_bad_normalization(self):
        h = make_inertial()
        u_bad = np.array([np.sqrt(1.01), 0.1, 0.0, 0.0])
        u_bad[0] = np.sqrt(1.01 + 0.01)
        smp = sample(h.t_latest + 1.0, h.samples[-1].s + 1.0,
                                   np.zeros(3), np.array([1.005, 0.0, 0.0, 0.0]),
                                   np.zeros(4))
        with pytest.raises(wl.ConstraintViolation):
            h.append(smp)

    def test_r0_must_match_ct(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1), c=2.0)
        bad = wl.WorldlineSample(t=1.0, s=1.0, r=np.array([1.0, 0, 0, 0]),
                                 u=np.array([1.0, 0, 0, 0]), a=np.zeros(4))
        with pytest.raises(wl.ConstraintViolation):
            h.append(bad)

    def test_curvature_jump_flagged_not_rejected(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
        smp = sample(0.0, 0.0, np.zeros(3),
                                   np.array([1.0, 0, 0, 0]),
                                   np.array([0.0, 0.5, 0.0, 0.0]))
        h.append(smp)
        assert "prehistory-curvature-jump" in h.flags

    def test_soft_drift_flagged(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
        u = np.array([1.0 + 3e-8, 0.0, 0.0, 0.0])
        h.append(sample(0.0, 0.0, np.zeros(3), u, np.zeros(4)))
        assert "u-normalization-drift" in h.flags


class TestQueries:
    def test_node_query_is_bit_for_bit(self):
        h = make_inertial(beta=0.37, n=7)
        node = h.samples[3]
        got = h.state_at_time(node.t)
        assert got.t == node.t and got.s == node.s
        assert np.array_equal(got.r, node.r)
        assert np.array_equal(got.u, node.u)
        assert np.array_equal(got.a, node.a)

    def test_query_beyond_present(self):
        h = make_inertial()
        for t in (h.t_latest + 1e-9, float("nan")):
            with pytest.raises(wl.QueryBeyondPresent):
                h.state_at_time(t)
            with pytest.raises(wl.QueryBeyondPresent):
                _udd(h, t)

    def test_a_query_reads_only_its_nodes_whatever_the_store_size(self):
        # a one-row query on a 10^5-node store allocates a few rows, not a
        # copy of the store's time column (0.8 MB)
        h = make_inertial(n=100_001, t1=100.0)
        t = [h.t_first + 50.0005]
        for query in (lambda: wl.gather([h], 0, t), lambda: wl.u_dotdot([h], 0, t)):
            query()
            tracemalloc.start()
            try:
                query()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024

    def test_empty_and_one_node_histories_raise(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
        with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
            h.t_first
        with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
            h.t_latest
        with pytest.raises(wl.QueryBeyondPresent):
            h.state_at_time(0.0)
        h.append(sample(0.0, 0.0, np.zeros(3),
                                      [1.0, 0.0, 0.0, 0.0], np.zeros(4)))
        # u_dotdot needs a segment; reading past the one node is refused
        with pytest.raises(wl.QueryBeyondPresent):
            _udd(h, 0.0)

    def test_inertial_exact_everywhere(self):
        c = 1.0
        beta = 0.6
        h = make_inertial(beta=beta, c=c, n=9, t1=4.0)
        for t in [-5.0, -0.3, 0.7, 1.234, 3.99]:
            smp = h.state_at_time(t)
            assert abs(smp.r[0] - c * t) == 0.0
            assert abs(smp.r[1] - beta * c * t) < 1e-13
            assert abs(smp.u[0] - 1.25) < 1e-13
            assert abs(smp.u[1] - 0.75) < 1e-13
            assert np.max(np.abs(smp.a)) < 1e-13

    def test_proper_time_at_beta_06(self):
        # gamma = 1.25 so ds/dt = c/gamma = 0.8 c
        c = 2.0
        h = make_inertial(beta=0.6, c=c, n=9, t1=4.0)
        for t in [0.5, 1.7, 3.2]:
            assert h.state_at_time(t).s == pytest.approx(0.8 * c * t, abs=1e-12)

    def test_proper_time_at_rest(self):
        h = make_inertial(beta=0.0, n=5, t1=2.0)
        assert h.state_at_time(1.3).s == pytest.approx(1.3, abs=1e-13)

    def test_piecewise_inertial_two_segments(self):
        # velocity kink placed exactly on a node; per-segment closed forms
        spec = wl.ParticleSpec(1.0, 1.0, 0.1)
        c = 1.0
        b1, b2 = 0.2, 0.5
        g1 = 1.0 / np.sqrt(1.0 - b1**2)
        g2 = 1.0 / np.sqrt(1.0 - b2**2)
        h = wl.WorldlineHistory(spec, c=c)
        tk = 1.0
        for t in np.linspace(0.0, tk, 5):
            u = np.array([g1, g1 * b1, 0, 0])
            h.append(sample(t, c * t / g1, [b1 * c * t, 0, 0],
                                          u, np.zeros(4), c))
        xk = b1 * c * tk
        sk = c * tk / g1
        for t in np.linspace(tk, 2.0, 5)[1:]:
            u = np.array([g2, g2 * b2, 0, 0])
            h.append(sample(t, sk + c * (t - tk) / g2,
                                          [xk + b2 * c * (t - tk), 0, 0],
                                          u, np.zeros(4), c))
        assert h.state_at_time(0.6).s == pytest.approx(0.6 / g1, abs=1e-10)
        assert h.state_at_time(1.7).s == pytest.approx(sk + 0.7 / g2, abs=1e-10)

    def test_sin_profile_interpolation_is_fourth_order(self):
        x_fn, v_fn, acc_fn = sin_profile()
        spec = wl.ParticleSpec(1.0, 1.0, 0.1)
        t_query = np.linspace(0.05, 3.95, 211)

        def max_err(n_nodes):
            h = wl.history_from_kinematics(spec, np.linspace(0.0, 4.0, n_nodes),
                                           x_fn, v_fn, acc_fn)
            errs = [abs(h.state_at_time(t).r[1] - x_fn(t)[0]) for t in t_query]
            return max(errs)

        e_h = max_err(41)
        e_h2 = max_err(81)
        ratio = e_h / e_h2
        assert 12.0 <= ratio <= 20.0

    def test_u_dotdot_matches_analytic(self):
        x_fn, v_fn, acc_fn = sin_profile(A=0.2, Om=0.9)
        spec = wl.ParticleSpec(1.0, 1.0, 0.1)
        h = wl.history_from_kinematics(spec, np.linspace(0.0, 4.0, 801),
                                       x_fn, v_fn, acc_fn)

        def u_analytic(t):
            v = v_fn(t)
            g = 1.0 / np.sqrt(1.0 - float(v @ v))
            return np.concatenate(([g], g * v))

        t0 = 1.77
        eps = 1e-4
        # d/ds = (gamma/c) d/dt applied twice, via high-accuracy FD on the
        # analytic profile
        def duds(t):
            g = u_analytic(t)[0]
            return g * (u_analytic(t + eps) - u_analytic(t - eps)) / (2 * eps)

        ref = u_analytic(t0)[0] * (duds(t0 + eps) - duds(t0 - eps)) / (2 * eps)
        got = _udd(h, t0)
        assert np.max(np.abs(got - ref)) < 5e-4 * (1.0 + np.max(np.abs(ref)))


def _row(smp):
    """A sample as one node table row in CSV_HEADER order."""
    return np.concatenate(([smp.t, smp.s], smp.r, smp.u, smp.a))


def _same_state(got, want):
    for name in ("t", "s", "r", "u", "a"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def _sin_history(n=40, t1=1.95):
    x_fn, v_fn, acc_fn = sin_profile()
    return wl.history_from_kinematics(wl.ParticleSpec(1.0, 1.0, 0.1),
                                      np.linspace(0.0, t1, n), x_fn, v_fn, acc_fn)


def _tail(h, t=2.0, a=(0.028, 0.2, 0.0, 0.0)):
    g = 1.0 / np.sqrt(1.0 - 0.14**2)
    return sample(t, h.samples[-1].s + 0.05, sin_profile()[0](t),
                  [g, 0.14 * g, 0.0, 0.0], a)


def _store(h):
    """The raw packed store, capacity rows included: the node counts, the
    (t, s) of the latest nodes, the key and the node block."""
    bank = h._bank
    return bank._n.tobytes(), bank._last.tobytes(), bank._key.tobytes(), bank._nodes.tobytes()


class TestStaged:
    def test_staged_matches_continued_profile(self):
        x_fn, v_fn, acc_fn = sin_profile()
        spec = wl.ParticleSpec(1.0, 1.0, 0.1)
        h_full = wl.history_from_kinematics(spec, np.linspace(0.0, 2.1, 85),
                                            x_fn, v_fn, acc_fn)
        h = wl.history_from_kinematics(spec, np.linspace(0.0, 2.0, 81),
                                       x_fn, v_fn, acc_fn)
        with wl.staged([h], [_row(h_full.state_at_time(2.05))]):
            assert abs(h.state_at_time(2.04).r[1] - x_fn(2.04)[0]) < 1e-6
            assert h.t_latest == pytest.approx(2.05) and len(h) == 82
        assert h.t_latest == pytest.approx(2.0) and len(h) == 81

    def test_staged_matches_appended_history_bit_for_bit(self):
        # a store keeps a spare row after every committed block, so the
        # stage is written in place
        h = _sin_history(n=32)
        nodes = h._bank._nodes
        tail = _tail(h)
        ref = h.copy()
        ref.append(tail)
        t_node = h.samples[7].t
        ts = (t_node, t_node + 0.013, h.t_latest, 1.97, 2.0)
        with wl.staged([h], [_row(tail)]):
            assert h._bank._nodes is nodes
            for t in ts:
                _same_state(h.state_at_time(t), ref.state_at_time(t))
                assert np.array_equal(_udd(h, t), _udd(ref, t))
            _same_state(h.states_at(np.array(ts)), ref.states_at(np.array(ts)))
            staged_dd = _udd(h, ref.samples[-2].t)
        # the latest committed node takes the staged segment, as in the
        # appended history
        assert not np.array_equal(staged_dd, _udd(h, h.t_latest))

    def test_staged_reads_like_the_appended_history(self, tmp_path):
        hs = wl.copy_histories([_sin_history(), make_inertial(beta=0.3, n=9, t1=1.9)])
        rows = [_row(_tail(hs[0])), _row(sample(2.0, hs[1].samples[-1].s + 0.09,
                                                [0.6, 0.0, 0.0], hs[1].samples[-1].u,
                                                [0.0, 0.1, 0.0, 0.0]))]
        refs = wl.copy_histories(hs)
        for ref, row in zip(refs, rows):
            ref.extend(row)
        before = [(len(h), h.t_latest, h.table) for h in hs]
        with wl.staged(hs, rows) as stage:
            # until a query reads the stage, whole-history reads see the
            # committed nodes only, and a query at or before them reads none
            _same_state(wl.gather(hs, [0, 1], [1.9, 1.9]), wl.gather(refs, [0, 1], [1.9, 1.9]))
            assert [(len(h), h.t_latest) for h in hs] == [b[:2] for b in before]
            assert not stage.read
            # a query past a history's latest node reads the stage, which
            # is written: from then on the histories read as the appended ones
            _same_state(wl.gather(hs, [0, 1, 1], [1.99, 1.95, 2.0]),
                        wl.gather(refs, [0, 1, 1], [1.99, 1.95, 2.0]))
            assert stage.read
            for h, ref in zip(hs, refs):
                assert len(h) == len(ref) and h.t_latest == ref.t_latest == 2.0
                assert np.array_equal(h.table, ref.table)
            hs[0].export_csv(tmp_path / "staged.csv", comment="c")
        refs[0].export_csv(tmp_path / "ref.csv", comment="c")
        assert (tmp_path / "staged.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        for h, (n, t_latest, table) in zip(hs, before):
            assert (len(h), h.t_latest) == (n, t_latest)
            assert np.array_equal(h.table, table)

    def test_a_stage_is_written_when_a_query_first_reads_it(self):
        a, b = wl.copy_histories([make_inertial(), make_inertial(beta=0.3)])
        before = [_store(h) for h in (a, b)]
        row = _block(a, m=1, dt=0.05)[0]
        # no query reads the stage: a state at or before the latest node,
        # u'' before it, or a query past the latest node of a history not
        # staged, which raises as it does with no stage open
        with wl.staged([a], [row]) as stage:
            a.state_at_time(4.0)
            wl.gather([a, b], [0, 1], [3.9, 4.0])
            _udd(a, 3.9)
            with pytest.raises(wl.QueryBeyondPresent, match="beyond latest stored t=4.0"):
                wl.gather([a, b], [1], [4.01])
            assert [_store(h) for h in (a, b)] == before and not stage.read
        assert [_store(h) for h in (a, b)] == before
        # u'' at the latest node reads it: the node takes the segment
        # ending there until a row follows it
        with wl.staged([a], [row]) as stage:
            _udd(a, 4.0)
            assert stage.read and (len(a), a.t_latest) == (10, 4.05)
        assert [_store(h)[:3] for h in (a, b)] == [store[:3] for store in before]
        # a query past the staged time writes the stage, then raises
        with wl.staged([a], [row]) as stage:
            with pytest.raises(wl.QueryBeyondPresent, match="beyond latest stored t=4.05"):
                a.states_at([4.02, 4.1])
            assert stage.read
        assert (len(a), a.t_latest) == (9, 4.0)

    def test_a_second_stage_on_a_store_is_refused(self):
        # one stage per store: the second raises before it writes, even
        # where its rows would need the store to grow
        a, b = wl.copy_histories([make_inertial(), make_inertial(beta=0.3)])
        while len(a) + 1 < a._bank._cap[a._slot]:  # leave the one spare row
            a.extend(_block(a, m=1))
        before = [_store(h) for h in (a, b)]
        tables = [h.table for h in (a, b)]
        with wl.staged([a, b], np.array([_block(a, m=1)[0], _block(b, m=1)[0]])):
            staged = [_store(h) for h in (a, b)]
            for second in ([a], [b], [a, b]):
                with pytest.raises(ValueError, match="a stage is already open"):
                    with wl.staged(second, [_block(h, m=1)[0] for h in second]):
                        pass
                assert [_store(h) for h in (a, b)] == staged
        assert [_store(h)[:3] for h in (a, b)] == [store[:3] for store in before]
        for h, tab in zip((a, b), tables):
            assert np.array_equal(h.table, tab)

    def test_no_node_is_written_while_a_stage_is_open(self):
        a, b = wl.copy_histories([make_inertial(), make_inertial(beta=0.3)])
        before = [_store(h) for h in (a, b)]
        row = _block(a, m=1)[0]
        with wl.staged([a], _block(a, m=1, dt=0.05)):
            staged = _store(a)
            for write in (lambda: wl.commit([a], _block(a, m=1, dt=0.1)),
                          lambda: a.extend(_block(a, m=2)),
                          lambda: a.append(wl.WorldlineSample(row[0], row[1], row[2:6],
                                                              row[6:10], row[10:])),
                          lambda: b.extend(_block(b, m=1))):
                with pytest.raises(ValueError, match="while a stage is open"):
                    write()
                assert _store(a) == staged
        # the counts, latest (t, s) and key as before; the staged row's node
        # data stays behind in the spare row
        assert [_store(h)[:3] for h in (a, b)] == [store[:3] for store in before]
        assert (len(a), a.t_latest) == (9, 4.0)

    def test_no_history_is_copied_while_a_stage_is_open(self):
        # a staged node is provisional: a copy made inside the block would
        # keep it as a committed node, never checked
        h, other = make_inertial(), make_inertial(beta=0.3)
        table = h.table
        row = _block(h, m=1, dt=0.05)[0]
        row[1], row[6:10] = 0.0, [3.0, 0.0, 0.0, 0.0]  # s goes back, u off shell
        with wl.staged([h], [row]):
            for copy in (h.copy, lambda: wl.copy_histories([other, h])):
                with pytest.raises(ValueError, match="copied while a stage is open"):
                    copy()
            assert len(other.copy()) == 9  # a store with no stage open
        assert len(h) == 9 and np.array_equal(h.table, table)
        assert np.array_equal(h.copy().table, table)

    def test_staged_rejects_non_advancing_rows(self):
        hs = wl.copy_histories([make_inertial(), make_inertial(beta=0.3)])
        ok = _row(sample(hs[0].t_latest + 0.1, 9.0, np.zeros(3),
                         [1.0, 0.0, 0.0, 0.0], np.zeros(4)))
        before = [_store(h) for h in hs]
        with pytest.raises(wl.NonMonotonicTime, match="must advance time"):
            with wl.staged(hs, [ok, _row(hs[1].samples[-1])]):
                pass
        # nothing is written, not even the valid row of the first history
        assert [_store(h) for h in hs] == before

    def test_staged_exit_resets_the_slope_cache(self):
        h, ref = _sin_history(), _sin_history()
        with wl.staged([h], [_row(_tail(h))]):
            h.state_at_time(1.99)
        # a committed node at the staged time with another a
        node = _tail(h, a=(0.014, 0.1, 0.0, 0.0))
        h.append(node)
        ref.append(node)
        for t in (1.96, 1.99, 2.0):
            _same_state(h.state_at_time(t), ref.state_at_time(t))
        assert np.array_equal(_udd(h, 1.95), _udd(ref, 1.95))


class TestValidation:
    def _nan_r_sample(self, t):
        return wl.WorldlineSample(t=t, s=t, r=np.array([t, np.nan, 0.0, 0.0]),
                                  u=np.array([1.0, 0.0, 0.0, 0.0]), a=np.zeros(4))

    def test_append_rejects_nan(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
        with pytest.raises(ValueError, match="r must be a finite four-vector"):
            h.append(self._nan_r_sample(0.0))
        assert len(h) == 0

    def test_staged_rejects_nan(self):
        h = make_inertial()
        before = _store(h)
        with pytest.raises(ValueError, match="r must be a finite four-vector") as err:
            with wl.staged([h], [_row(self._nan_r_sample(h.t_latest + 0.1))]):
                pass
        assert err.value.particle == "a"
        assert _store(h) == before

    def test_a_stage_failure_names_the_history_of_its_row(self):
        # the row at fault, after a valid one; an empty history is named
        # whichever row fails
        specs = [wl.ParticleSpec(1.0, 1.0, 0.1, label) for label in "abc"]
        hs = wl.copy_histories([make_inertial(), make_inertial(beta=0.3), make_inertial()], specs)
        rows = np.array([_row(self._nan_r_sample(h.t_latest + 0.1)) for h in hs])
        rows[[0, 2], 3] = 0.0
        with pytest.raises(ValueError, match="r must be a finite four-vector") as err:
            wl.staged(hs, rows)
        assert err.value.particle == "b"
        rows[1, 3], rows[2, 0] = 0.0, hs[2].t_latest
        with pytest.raises(wl.NonMonotonicTime) as err:
            wl.staged(hs, rows)
        assert err.value.particle == "c"
        empty = wl.copy_histories([make_inertial(), wl.WorldlineHistory(specs[1])])
        with pytest.raises(wl.QueryBeyondPresent, match="holds no samples") as err:
            wl.staged(empty, rows[:2])
        assert err.value.particle == "b"

    def test_append_rejects_badly_shaped_samples(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
        # 14 cells in all, but r has three and u five
        with pytest.raises(ValueError, match="r, u and a must be four-vectors"):
            h.append(wl.WorldlineSample(t=0.0, s=0.0, r=[0.0, 0.0, 0.0],
                                        u=[0.0, 1.0, 0.0, 0.0, 0.0], a=np.zeros(4)))
        with pytest.raises(ValueError, match="t and s must be numbers"):
            h.append(wl.WorldlineSample(t=np.zeros(1), s=0.0, r=np.zeros(4),
                                        u=[1.0, 0.0, 0.0, 0.0], a=np.zeros(4)))
        assert len(h) == 0

    def test_non_finite_t_and_s_rejected(self):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
        with pytest.raises(ValueError, match="t must be a finite number"):
            h.append(sample(np.nan, 0.0, np.zeros(3),
                                          [1.0, 0.0, 0.0, 0.0], np.zeros(4)))
        for s in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="s must be a finite number"):
                h.append(sample(0.0, s, np.zeros(3),
                                              [1.0, 0.0, 0.0, 0.0], np.zeros(4)))
        assert len(h) == 0


def _block(h, m=5, dt=0.5):
    """m clean rows continuing the beta = 0.6 inertial history h."""
    t = h.t_latest + dt * np.arange(1, m + 1)
    return np.column_stack((t, 0.8 * t, t, 0.6 * t, np.zeros((m, 2)),
                            np.tile([1.25, 0.75, 0.0, 0.0], (m, 1)), np.zeros((m, 4))))


def _appended_row_by_row(h, table):
    """Append the rows one at a time; the error that stops it, or None."""
    for row in table:
        try:
            h.append(wl.WorldlineSample(t=row[0], s=row[1], r=row[2:6],
                                        u=row[6:10], a=row[10:14]))
        except Exception as exc:  # compared with the block write's error
            return exc
    return None


def _fault(name):
    def put(tab):
        row = tab[2]
        if name == "r":
            row[3] = np.nan
        elif name == "u":
            row[7] = np.inf
        elif name == "a":
            row[11] = -np.inf
        elif name == "t":
            row[0] = tab[1, 0]
        elif name == "s":
            row[1] = tab[1, 1]
        elif name == "hard_tol":
            row[6] += 1e-3
        elif name == "r0":
            row[2] += 1.0
        elif name == "hard_tol_and_r0":
            row[6] += 1e-3
            row[2] += 1.0
        tab[4, 0] = np.nan  # a later fault never wins over row 2
    return put


class TestExtend:
    @pytest.mark.parametrize("fault", ["r", "u", "a", "t", "s", "hard_tol", "r0",
                                       "hard_tol_and_r0"])
    def test_block_fails_like_rows_and_commits_nothing(self, fault):
        h = make_inertial()
        tab = _block(h)
        _fault(fault)(tab)
        ref = h.copy()
        want = _appended_row_by_row(ref, tab)
        assert want is not None and len(ref) == len(h) + 2
        flags = list(h.flags)
        with pytest.raises(type(want)) as got:
            h.extend(tab)
        assert str(got.value) == str(want)
        assert len(h) == 9 and h.flags == flags
        assert np.array_equal(h.table, make_inertial().table)

    def test_clean_block_matches_rows_bit_for_bit(self):
        h = make_inertial()
        tab = _block(h)
        tab[1, 10] = 1e-6                              # u.a drift at row 1
        tab[3, 6] = np.sqrt(1.0 + 1e-8 + 0.75**2)      # u.u drift at row 3
        tab[:, 2] *= 1.0 + 1e-12                       # r^0 canonicalized to c t
        ref = h.copy()
        assert _appended_row_by_row(ref, tab) is None
        h.extend(tab)
        assert h.flags == ref.flags == ["u.a-orthogonality-drift",
                                        "u-normalization-drift"]
        assert np.array_equal(h.table, ref.table)
        assert np.array_equal(h.table[:, 2], h.table[:, 0])
        assert h.state_at_time(h.t_latest - 0.3).s == ref.state_at_time(h.t_latest - 0.3).s

    def test_copy_keeps_tolerances_and_flags(self):
        h = make_inertial()
        h.hard_tol, h.constraint_tol = 1e-4, 1e-7
        h.flags.append("u-normalization-drift")
        spec = wl.ParticleSpec(2.0, 0.0, 0.3, "b")
        g = h.copy(spec)
        assert (g.spec, g.c, g.hard_tol, g.constraint_tol) == (spec, h.c, 1e-4, 1e-7)
        assert g.flags == h.flags and g.flags is not h.flags
        g.append(sample(5.0, 4.0, [3.0, 0, 0], [1.25, 0.75, 0, 0],
                                      np.zeros(4)))
        assert len(g) == len(h) + 1 and np.array_equal(g.table[:-1], h.table)

    def test_transformed_is_a_poincare_map(self):
        h = make_inertial(beta=0.6, n=9, t1=4.0)
        lam = np.eye(4)
        lam[:2, :2] = [[1.25, -0.75], [-0.75, 1.25]]  # boost to the rest frame
        shift = np.array([0.5, 1.0, -2.0, 0.0])
        moved = h.transformed(lam, shift)
        tab = moved.table
        assert np.allclose(tab[:, 6:10], [1.0, 0.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(tab[:, 3:6], [1.0, -2.0, 0.0], atol=1e-14)
        assert np.array_equal(tab[:, 1], h.table[:, 1])
        assert np.array_equal(tab[:, 2], tab[:, 0] * h.c)
        back = moved.transformed(np.linalg.inv(lam), -np.linalg.inv(lam) @ shift)
        assert np.allclose(back.table, h.table, atol=1e-14)


class TestCsvExport:
    def test_header_and_round_trip(self, tmp_path):
        h = make_inertial(beta=0.31, n=6)
        path = tmp_path / "wl.csv"
        h.export_csv(path)
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "t,s,r0,r1,r2,r3,u0,u1,u2,u3,a0,a1,a2,a3"
        assert text.endswith("\n")
        row = lines[3].split(",")
        assert len(row) == 14
        k = 2
        smp = h.samples[k]
        assert float(lines[k + 1].split(",")[0]) == smp.t
        assert float(lines[k + 1].split(",")[3]) == smp.r[1]

    def test_table_sink_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "table.csv"
        rows = [("a", float("nan"), np.float64(float("inf"))),
                ("b c", -0.0, 1e-05),
                ("d", np.float64(-float("inf")), 3)]
        wl.write_table(path, ["name", "x", "y"], rows, comment="config-hash: 0123")
        text = path.read_text(encoding="utf-8")
        assert text == ("# config-hash: 0123\nname,x,y\n"
                        "a,nan,inf\nb c,-0.0,1e-05\nd,-inf,3.0\n")
        assert text == per_cell_table(["name", "x", "y"], rows, "config-hash: 0123")
        path.write_text("\n# note\n" + text.replace("\nb c", "\n\n  \nb c"),
                        encoding="utf-8")
        header, lines = wl.read_table(path)
        assert header == ["name", "x", "y"]
        assert lines == ["a,nan,inf", "b c,-0.0,1e-05", "d,-inf,3.0"]
        wl.write_table(path, ["x"], [])
        assert path.read_text(encoding="utf-8") == "x\n"
        assert wl.read_table(path) == (["x"], [])
        path.write_text("# comment only\n\n", encoding="utf-8")
        assert wl.read_table(path) == ([], [])


def per_cell_table(header, rows, comment=None) -> str:
    """The reference text of a table: one cell at a time, a string as it
    is and any other cell as repr(float(v))."""
    lines = ([] if comment is None else [f"# {comment}"]) + [",".join(header)]
    lines += [",".join([v if isinstance(v, str) else repr(float(v)) for v in row])
              for row in rows]
    return "".join(ln + "\n" for ln in lines)


EDGE_VALUES = [-0.0, float("nan"), float("inf"), -float("inf"), 1e16,
               9999999999999998.0, 1e-4, 1e-5, 5e-324, 1.7976931348623157e308]


def edge_table(n, width=14):
    """(n, width) floats over the whole exponent range, subnormals and
    overflow to inf included, with EDGE_VALUES repeated through it."""
    rng = np.random.default_rng(n)
    with np.errstate(over="ignore"):
        tab = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-330, 310, (n, width))
    flat = tab.reshape(-1)
    flat[::3] = np.resize(EDGE_VALUES, flat[::3].shape)
    return tab


class TestFloatBlocks:
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025])
    @pytest.mark.parametrize("comment", [None, "config-hash: 0123"])
    def test_blocks_write_the_per_cell_bytes(self, tmp_path, n, comment):
        tab, header = edge_table(n), wl.CSV_HEADER
        want = per_cell_table(header, tab.tolist(), comment).encode("utf-8")
        path = tmp_path / "t.csv"
        wl.write_table(path, header, tab, comment)
        assert path.read_bytes() == want
        # the same table as uneven consecutive blocks, and one row at a time
        for rows in ((tab[:n // 3], tab[n // 3:]), list(tab)):
            wl.write_table(path, header, rows, comment)
            assert path.read_bytes() == want

    def test_edge_values_and_integer_blocks(self, tmp_path):
        path = tmp_path / "t.csv"
        wl.write_table(path, ["x"], np.array(EDGE_VALUES)[:, None])
        assert path.read_text(encoding="utf-8") == (
            "x\n-0.0\nnan\ninf\n-inf\n1e+16\n9999999999999998.0\n0.0001\n1e-05\n"
            "5e-324\n1.7976931348623157e+308\n")
        ints = np.arange(-3, 3).reshape(2, 3)
        wl.write_table(path, ["a", "b", "c"], ints)
        assert path.read_text(encoding="utf-8") == per_cell_table(["a", "b", "c"],
                                                                  ints.tolist())

    @pytest.mark.parametrize("n", [1, 1024, 2500])
    def test_export_reads_the_store_in_blocks(self, tmp_path, n):
        hs = wl.copy_histories([make_inertial(beta=0.2, n=5), make_inertial(n=n),
                                make_inertial(beta=-0.3, n=7)])
        path = tmp_path / "wl.csv"
        for h in hs:
            h.export_csv(path, comment="c")
            assert path.read_text(encoding="utf-8") == per_cell_table(
                wl.CSV_HEADER, h.table.tolist(), "c")


betas = st.floats(min_value=-0.9, max_value=0.9, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(betas, st.floats(min_value=-3.0, max_value=5.9, allow_nan=False))
def test_inertial_interpolation_is_exact(beta, t):
    spec = wl.ParticleSpec(1.0, 1.0, 0.1)
    h = wl.inertial_history(spec, np.array([0.4, -0.2, 0.0]),
                            np.array([beta, 0.0, 0.0]), 0.0, 6.0, 11)
    smp = h.state_at_time(t)
    g = 1.0 / np.sqrt(1.0 - beta**2)
    assert abs(smp.r[1] - (0.4 + beta * t)) < 1e-12 * (1 + abs(t))
    assert abs(smp.u[0] - g) < 1e-12
    assert abs(smp.s - t / g) < 1e-11 * (1 + abs(t))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.02, max_value=3.9, allow_nan=False),
                min_size=2, max_size=8))
def test_proper_time_is_monotone(ts):
    x_fn, v_fn, acc_fn = sin_profile()
    spec = wl.ParticleSpec(1.0, 1.0, 0.1)
    h = wl.history_from_kinematics(spec, np.linspace(0.0, 4.0, 101),
                                   x_fn, v_fn, acc_fn)
    ts = sorted(set(ts))
    ss = [h.state_at_time(t).s for t in ts]
    for s1, s2 in zip(ss, ss[1:]):
        assert s1 < s2


# -- one store per system --------------------------------------------------------


def random_table(rng, n, c=1.0):
    """n valid nodes (CSV_HEADER order) with random spacing, velocities
    below 0.87 c and arbitrary accelerations."""
    t = rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(0.05, 0.8, n))
    v = rng.uniform(-0.5, 0.5, (n, 3))
    g = 1.0 / np.sqrt(1.0 - np.sum(v * v, axis=1))
    s = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.05, 0.8, n))
    return np.column_stack((t, s, c * t, rng.normal(0.0, 2.0, (n, 3)),
                            g, g[:, None] * v, rng.normal(0.0, 0.3, (n, 4))))


def continued(h, tab):
    """tab shifted in t and s to start just after h's latest node."""
    tab = tab.copy()
    tab[:, 0] += h.t_latest + 0.1 - tab[0, 0]
    tab[:, 1] += h.table[-1, 1] + 0.1 - tab[0, 1]
    tab[:, 2] = h.c * tab[:, 0]
    return tab


def reference_state(h, t):
    """The per-history lookup that one store per system replaced: one
    searchsorted over the history's own node times (clipped into its
    nodes) and the Hermite slopes of its own table, then the module's
    evaluation of that one query."""
    tab, c = h.table, h.c
    u, a = tab[:, 6:10], tab[:, 10:14]
    nodes = np.column_stack((tab[:, 1:], c / u[:, 0], c * u / u[:, :1], a * (c / u[:, :1])))
    ts = np.array([t])
    i = tab[:, 0].searchsorted(ts, side="right")
    k0, k1 = np.clip(i - 1, 0, len(tab) - 1), np.clip(i, 0, len(tab) - 1)
    return wl._evaluate(ts, tab[k0, 0], nodes[k0], tab[k1, 0], nodes[k1], c)


def _queries(rng, hs):
    """(src, ts) in shuffled order: per history one time before its first
    node, every node, the latest node and a time inside each segment."""
    src, ts = [], []
    for k, h in enumerate(hs):
        t = h.table[:, 0]
        mids = t[:-1] + rng.uniform(0.0, 1.0, len(t) - 1) * np.diff(t)
        times = [t[0] - rng.uniform(0.01, 2.0), *t, t[-1], *mids]
        src += [k] * len(times)
        ts += times
    order = rng.permutation(len(ts))
    return np.array(src)[order], np.array(ts)[order]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans(), st.booleans())
def test_gather_matches_the_per_history_lookup_bit_for_bit(seed, k, reverse, stage):
    rng = np.random.default_rng(seed)
    hs = []
    for i in range(k):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, f"h{i}"))
        h.extend(random_table(rng, int(rng.integers(1, 10))))
        hs.append(h)
    hs = wl.copy_histories(hs)
    if reverse:  # the set in another order than its slots
        hs = hs[::-1]
    # with a stage, the queries and the reference come from copies with
    # the rows appended: the staged node and a time inside each staged
    # segment are queried, so the gather reads (and writes) the stage
    refs, block = hs, contextlib.nullcontext()
    if stage:
        rows = random_table(rng, k)
        rows[:, 0] = [h.t_latest + 0.3 for h in hs]
        rows[:, 1] = [h.table[-1, 1] + 0.3 for h in hs]
        rows[:, 2] = rows[:, 0]
        refs = wl.copy_histories(hs)
        for ref, row in zip(refs, rows):
            ref.extend(row)
        block = wl.staged(hs, rows)
    with block as st:
        src, ts = _queries(rng, refs)
        got = wl.gather(hs, src, ts)
        assert not stage or st.read
        for m, (i, t) in enumerate(zip(src.tolist(), ts.tolist())):
            want = reference_state(refs[i], t)
            for name in ("t", "s", "r", "u", "a"):
                assert np.array_equal(getattr(got, name)[m], getattr(want, name)[0]), (i, t, name)
            _same_state(hs[i].states_at([t]), want)


def test_u_dotdot_batch_over_mixed_sources_matches_one_query_calls():
    hs = wl.copy_histories([_sin_history(), make_inertial(beta=0.3, n=9, t1=1.9),
                            _sin_history(n=25)])
    rows = [_row(_tail(h)) for h in hs]
    refs = wl.copy_histories(hs)
    for ref, row in zip(refs, rows):
        ref.extend(row)
    with wl.staged(hs, rows) as stage:
        queries = []
        for k, (h, row) in enumerate(zip(hs, rows)):
            t = np.append(h.table[:, 0], row[0])
            # before the first node, the first node, an interior node, a
            # time inside a segment, the latest committed node, a time
            # inside the staged segment and the staged node
            queries += [(k, x) for x in (t[0] - 0.5, t[0], t[3], 0.5 * (t[4] + t[5]),
                                         t[-2], 0.5 * (t[-2] + t[-1]), t[-1])]
        order = np.random.default_rng(5).permutation(len(queries))
        src, ts = (np.array(x)[order] for x in zip(*queries))
        batch = wl.u_dotdot(hs, src, ts)
        assert stage.read
        for got, k, t in zip(batch, src.tolist(), ts.tolist()):
            assert np.array_equal(got, wl.u_dotdot(hs, k, [t])[0])
            assert np.array_equal(got, wl.u_dotdot(refs, k, [t])[0])
        assert not np.count_nonzero(batch[ts < 0.0])
        assert np.count_nonzero(batch[src == 0])  # the curved history


# the cubic Hermite value and t-derivative, each from its own powers and
# weights: the formulas wl._weights shares its products between
def hermite(y0, dy0, y1, dy1, h, x):
    x2 = x * x
    t3, x3 = 3.0 * x2, x2 * x
    return ((2.0 * x3 - t3 + 1.0) * y0 + h * (x3 - 2.0 * x2 + x) * dy0
            + (-2.0 * x3 + t3) * y1 + h * (x3 - x2) * dy1)


def hermite_d(y0, dy0, y1, dy1, h, x):
    x2 = x * x
    t3 = 3.0 * x2
    s6x2, s6x = 6.0 * x2, 6.0 * x
    return ((s6x2 - s6x) / h * y0 + (t3 - 4.0 * x + 1.0) * dy0
            + (s6x - s6x2) / h * y1 + (t3 - 2.0 * x) * dy1)


def test_shared_weights_have_the_bits_of_each_formula():
    # the edges: x = 1 (where 6 x^2 - 6 x is 0 and its negation's sign
    # shows), x next to 1, and x so small that x^2 underflows
    rng = np.random.default_rng(29)
    edges = [1.0, np.nextafter(1.0, 0.0), 0.5, 1e-17, 1e-200, 5e-324]
    for m in (1, 6, 500):
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, (m, 1))
            x[0] = rng.choice(edges)
            h = rng.uniform(1e-3, 10.0, (m, 1))
            ys = [rng.normal(size=(m, 9)) * rng.choice([0.0, -0.0, 1.0, 1e-8], size=(m, 9))
                  for _ in range(4)]
            w, d = wl._weights(h, x)
            assert wl._combine(w, *ys).tobytes() == hermite(*ys, h, x).tobytes()
            assert wl._combine(d, *ys).tobytes() == hermite_d(*ys, h, x).tobytes()
    for x in edges:  # one segment's weights are plain floats
        ys = [rng.normal(size=(1, 9)) for _ in range(4)]
        w, d = wl._weights(0.7, x)
        assert wl._combine(w, *ys).tobytes() == hermite(*ys, 0.7, x).tobytes()
        assert wl._combine(d, *ys).tobytes() == hermite_d(*ys, 0.7, x).tobytes()


def test_segment_udotdot_is_the_full_value_formula_bit_for_bit():
    # only u^0 of the value interpolant is evaluated; the oracle evaluates
    # all four components, as the formula did before
    def oracle(t, t0, p, t1, q, c):
        h = t1 - t0
        x = (t - t0) / h
        y = (p[:, wl._U], p[:, wl._DU], q[:, wl._U], q[:, wl._DU], h[:, None], x[:, None])
        u, du, ddu = hermite(*y), hermite_d(*y), wl._hermite_dd(*y)
        g = u[:, :1] / c
        return np.float_power(g, 2.0) * ddu + g * (du[:, :1] / c) * du

    rng = np.random.default_rng(17)
    for c in (1.0, 2.5):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1), c=c)
        h.extend(random_table(rng, 30, c))
        (a, b), bank = h._span(), h._bank
        for m in (1, 5, 29):
            k = a + rng.integers(0, b - a - 1, m)
            t0, t1 = bank._t[k], bank._t[k + 1]
            t = t0 + rng.uniform(0.0, 1.0, m) * (t1 - t0)
            args = (t, t0, bank._nodes[k], t1, bank._nodes[k + 1], c)
            assert wl._segment_udotdot(*args).tobytes() == oracle(*args).tobytes()


def test_gather_refuses_the_first_query_past_the_present_in_request_order():
    rng = np.random.default_rng(3)
    hs = [wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1)) for _ in range(3)]
    for h in hs:
        h.extend(random_table(rng, 5))
    hs = wl.copy_histories(hs)
    late = [h.t_latest + 1.0 for h in hs]
    for src in ([2, 0, 1], [1, 2, 0]):
        ts = [hs[src[0]].t_first, late[src[1]], late[src[2]]]
        with pytest.raises(wl.QueryBeyondPresent) as got:
            wl.gather(hs, src, ts)
        assert str(got.value) == (f"query at t={late[src[1]]!r} is beyond latest stored "
                                  f"t={hs[src[1]].t_latest!r}")
    with pytest.raises(wl.QueryBeyondPresent, match="t=nan is beyond"):
        wl.gather(hs, [0, 1], [hs[0].t_first, float("nan")])
    full, empty = wl.copy_histories([hs[0], wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))])
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        wl.gather([full, empty], [0, 1], [full.t_first, 0.0])


def test_copy_histories_keeps_the_nodes_and_leaves_the_originals():
    rng = np.random.default_rng(5)
    hs = [wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, f"h{i}")) for i in range(3)]
    for h in hs:
        h.extend(random_table(rng, 7))
    hs[1].hard_tol = 1e-4
    kept = [(_store(h), h.table, list(h.flags), h.hard_tol) for h in hs]
    copies = wl.copy_histories(hs)
    assert len({id(h._bank) for h in copies}) == 1
    for h, (_, tab, flags, hard_tol) in zip(copies, kept):
        assert (h.flags, h.hard_tol) == (flags, hard_tol)
        assert np.array_equal(h.table, tab)
    # each copy grows on its own, and no original with it
    copies[1].extend(continued(copies[1], random_table(rng, 40)))
    assert len(copies[1]) == 47
    for h, (_, tab, _, _) in zip(copies[::2], kept[::2]):
        assert np.array_equal(h.table, tab)
    assert [_store(h) for h in hs] == [store for store, *_ in kept]


def test_stores_are_made_of_one_light_speed():
    hs = [make_inertial(c=1.0), make_inertial(c=2.0)]
    before = [(h._bank, _store(h)) for h in hs]
    with pytest.raises(ValueError, match="share one light speed"):
        wl.copy_histories(hs)
    with pytest.raises(ValueError, match="share one light speed"):
        wl.gather(hs, [0, 1], [-0.5, -0.5])
    assert [(h._bank, _store(h)) for h in hs] == before
    assert hs[1].state_at_time(-0.5).r[0] == -1.0


def test_reads_of_histories_in_several_stores_are_refused():
    hs = [make_inertial(), make_inertial(beta=0.3)]  # each in a store of its own
    with pytest.raises(ValueError, match="must share one store"):
        wl.gather(hs, [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="must share one store"):
        wl.u_dotdot(hs, [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="must share one store"):
        ret.solve_delays(hs, [0, 1], [[2.0, 0.0, 1.0, 0.0]] * 2, [0.1, 0.1])
    together = wl.copy_histories(hs)
    assert np.array_equal(wl.gather(together, [0, 1], [1.0, 1.0]).r,
                          [h.state_at_time(1.0).r for h in hs])


def test_a_set_naming_one_history_twice_is_refused():
    h = make_inertial()
    before = _store(h)
    row = _block(h, m=1)
    for call in (lambda: wl.commit([h, h], np.vstack([row, _block(h, m=1, dt=1.0)])),
                 lambda: wl.staged([h, h], np.vstack([row, row])).__enter__(),
                 lambda: wl.gather([h, h], [0, 1], [1.0, 2.0]),
                 lambda: wl.copy_histories([h, h])):
        with pytest.raises(ValueError, match="name each history once"):
            call()
    assert _store(h) == before


def _committed_store():
    rng = np.random.default_rng(11)
    hs = [wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, label)) for label in "abc"]
    for h in hs:
        tab = random_table(rng, 4)
        tab[:, 10:] = 0.0  # no flag before the commit
        h.extend(tab)
    hs = wl.copy_histories(hs)
    last = np.array([h.table[-1] for h in hs])
    rows = last.copy()
    rows[:, 0] += 0.1
    rows[:, 1] += 0.1
    rows[:, 2] = rows[:, 0]
    return hs, rows


@pytest.mark.parametrize("faults", [
    {1: (6, 1e-3)},                    # hard tolerance at b
    {1: (6, 1e-3), 2: (3, np.nan)},    # b first, though c's NaN is checked first in a row
    {0: (0, -1.0), 1: (6, 1e-3)},      # t does not advance at a
    {2: (2, 5.0)},                     # r^0 != c t at c
])
def test_commit_raises_the_first_failing_row_with_its_label(faults):
    hs, rows = _committed_store()
    for i, (col, delta) in faults.items():
        rows[i, col] += delta
    first = min(faults)
    ref = hs[first].copy()
    with pytest.raises(Exception) as want:
        ref.extend(rows[first])
    before = [(h.table, list(h.flags)) for h in hs]
    with pytest.raises(type(want.value)) as got:
        wl.commit(hs, rows)
    assert str(got.value) == str(want.value)
    assert got.value.particle == "abc"[first]
    for h, (tab, flags) in zip(hs, before):
        assert np.array_equal(h.table, tab) and h.flags == flags


def test_commit_checks_each_row_under_its_own_history():
    hs, rows = _committed_store()
    hs[2].hard_tol = 1e-2
    rows[1:, 6] += 1e-3  # over the default hard tolerance, under c's
    with pytest.raises(wl.ConstraintViolation, match="hard tolerance 1.0e-06") as got:
        wl.commit(hs, rows)
    assert got.value.particle == "b"
    rows[1, 6] -= 1e-3
    wl.commit(hs, rows)
    assert hs[2].flags == ["u-normalization-drift"] and hs[0].flags == hs[1].flags == []
    for h, row in zip(hs, rows):
        assert np.array_equal(h.table[-1], row)


def test_commit_equals_appending_row_by_row():
    hs, rows = _committed_store()
    refs = wl.copy_histories(hs)
    rows[:, 2] *= 1.0 + 1e-12  # r^0 canonicalized to c t
    wl.commit(hs, rows)
    for ref, row in zip(refs, rows):
        ref.append(wl.WorldlineSample(row[0], row[1], row[2:6], row[6:10], row[10:]))
    src, ts = _queries(np.random.default_rng(2), hs)
    _same_state(wl.gather(hs, src, ts), wl.gather(refs, src, ts))
    for h, ref in zip(hs, refs):
        assert np.array_equal(h.table, ref.table) and h.flags == ref.flags


# -- the check path against a reference copy of its per-check form --------
#
# _first_failure_ref and _check_rows_ref are a reference copy of the
# write checks, one mask of passing rows per check and flags per row
# owner, with tails read from the histories: the store's check path must
# raise the same exception, with the same text, and add the same flags in
# the same order, on any table


def _first_failure_ref(table, checks=()):
    finite = np.isfinite(table)
    if np.count_nonzero(finite) == finite.size and all(
            np.count_nonzero(mask) == len(mask) for mask, _ in checks):
        return None

    def nonfinite(i):
        name = wl.CSV_HEADER[int(np.argmin(finite[i]))][0]
        kind = "number" if name in "ts" else "four-vector"
        return ValueError(f"{name} must be a finite {kind}")

    checks = [(finite.all(axis=1), nonfinite), *checks]
    fails = ~np.array([mask for mask, _ in checks])
    i = int(np.argmax(fails.any(axis=0)))
    return i, checks[int(np.argmax(fails[:, i]))][1](i)


def _tails_ref(hs):
    """(n, t, s) of each history's latest node, -inf while it is empty."""
    last = [h.table[-1, :2] if len(h) else (-np.inf, -np.inf) for h in hs]
    return np.array([len(h) for h in hs]), *np.array(last, dtype=float).reshape(-1, 2).T


def _check_rows_ref(hs, tails, tab, labelled):
    m, one = len(tab), len(hs) == 1
    owner, rank = (np.zeros(m, dtype=np.intp), np.arange(m)) if one else (np.arange(m), 0)
    n0, t_last, s_last = tails
    hard, soft = np.array([(h.hard_tol, h.constraint_tol) for h in hs])[owner].T
    t, s, r, u, a = tab[:, 0], tab[:, 1], tab[:, 2:6], tab[:, 6:10], tab[:, 10:14]
    t_prev = np.concatenate((t_last, t[:-1])) if one else t_last
    s_prev = np.concatenate((s_last, s[:-1])) if one else s_last
    ct = hs[0].c * t
    norm_err = np.abs(u[:, 0] * u[:, 0] - np.sum(u[:, 1:] ** 2, axis=1) - 1.0)
    fail = _first_failure_ref(tab, (
        (t > t_prev, lambda i: wl.NonMonotonicTime(
            f"append at t={t[i].item()!r} does not advance past {t_prev[i].item()!r}")),
        (s > s_prev, lambda i: wl.NonMonotonicTime(
            f"append at s={s[i].item()!r} does not advance past {s_prev[i].item()!r}")),
        (~(norm_err > hard), lambda i: wl.ConstraintViolation(
            f"|u.u - 1| = {norm_err[i]:.3e} exceeds hard tolerance {hard[i]:.1e}")),
        (~(np.abs(r[:, 0] - ct) > 1e-9 * (1.0 + np.abs(ct))), lambda i: wl.ConstraintViolation(
            f"r^0 = {r[i, 0].item()!r} does not equal c t = {ct[i].item()!r}")),
    ))
    if fail is not None:
        i, exc = fail
        if labelled:
            exc.particle = hs[owner[i]].spec.label
        raise exc
    a_max = np.max(np.abs(a), axis=1)
    ua = np.abs(u[:, 0] * a[:, 0] - np.sum(u[:, 1:] * a[:, 1:], axis=1))
    hits = {"u-normalization-drift": norm_err > soft,
            "u.a-orthogonality-drift": ua > soft * (1.0 + a_max),
            "prehistory-curvature-jump": (n0[owner] + rank == 0) & (a_max > 1e-12)}
    flagged = np.logical_or.reduce(list(hits.values()))
    for k in np.unique(owner[flagged]).tolist() if np.count_nonzero(flagged) else ():
        h, rows = hs[k], owner == k
        new = [f for f, hit in hits.items() if np.count_nonzero(hit[rows]) and f not in h.flags]
        h.flags += sorted(new, key=lambda f: np.argmax(hits[f][rows]))


def _staged_check_ref(hs, tab):
    """The stage checks, their failure labelled as a commit's is: with the
    failing row's history, or the first empty one."""
    latest = np.array([h.t_latest if len(h) else np.nan for h in hs])
    fail = _first_failure_ref(tab, ((tab[:, 0] > latest, lambda i: wl.NonMonotonicTime(
        "provisional sample must advance time")),))
    if fail is not None:
        i, exc = fail
        if np.count_nonzero(np.isnan(latest)):
            i, exc = int(np.argmax(np.isnan(latest))), wl.QueryBeyondPresent(
                "history holds no samples")
        exc.particle = hs[i].spec.label
        raise exc


_FAULTS = ("nan", "inf", "t", "s", "hard", "r0", "soft", "ua", "curvature")


def _inject(rng, tab, row, fault, prev):
    """Put fault into tab[row], prev the (t, s) of the node before it; a
    fault near a tolerance falls on either side of it, as the tolerances
    of the row's history (_histories) and its |a| decide."""
    x = tab[row]
    if fault == "nan":
        x[rng.integers(14)] = np.nan
    elif fault == "inf":
        x[rng.integers(14)] = rng.choice([np.inf, -np.inf])
    elif fault in ("t", "s"):
        k = "ts".index(fault)
        x[k] = prev[k] - rng.choice([0.0, 0.1])  # stands still or goes back
        if k == 0:
            x[2] = x[0]
    elif fault in ("hard", "soft"):  # |u.u - 1| at about eps
        eps = rng.choice([1e-3, 2e-6] if fault == "hard" else [1e-8, 1.5e-9, 5e-10])
        x[6] = np.sqrt(1.0 + rng.choice([-eps, eps]) + x[7:10] @ x[7:10])
    elif fault == "r0":  # off by more, or less, than 1e-9 (1 + |c t|)
        x[2] += rng.choice([1e-3, 2e-9, 1e-10])
    elif fault == "ua":  # u.a about u^0 times the shift of a^0
        x[10] += rng.choice([1e-4, 1.5e-9, 1.5e-10])
    elif fault == "curvature":  # |a| above, or below, the 1e-12 a first node may have
        x[10:] += rng.choice([1e-3, 1e-10, 1e-13])


def _orthogonal(tab, scale):
    """tab with a scaled by scale and its a^0 set so that u.a = 0."""
    tab = tab.copy()
    u, a = tab[:, 6:10], tab[:, 10:14]
    a[:, 1:] *= scale
    a[:, 0] = np.sum(u[:, 1:] * a[:, 1:], axis=1) / u[:, 0]
    return tab


def _faulty(rng, tab, tails, fault):
    """tab with fault and up to two random faults more at random rows (a
    curvature fault on row 0); tails gives the (t, s) before row 0."""
    tab = tab.copy()
    for fault in (fault, *rng.choice(_FAULTS, rng.integers(0, 3))):
        row = 0 if fault == "curvature" else int(rng.integers(len(tab)))
        _inject(rng, tab, row, fault, tab[row - 1, :2] if row else tails)
    return tab


def _outcome(write, hs):
    """(exception type, text, particle) of write(), or the flags of hs after it."""
    try:
        write()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "particle", None)
    return [list(h.flags) for h in hs]


def _histories(rng, n, empty=()):
    """n histories in one store, with random tolerances; those in empty hold no node."""
    hs = []
    for k in range(n):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, f"p{k}"))
        h.constraint_tol = rng.choice([1e-9, 1e-10])
        h.hard_tol = rng.choice([1e-6, 1e-5])
        if k not in empty:
            tab = random_table(rng, int(rng.integers(1, 4)))
            tab[:, 10:] = 0.0
            h.extend(tab)
            h.flags = [str(f) for f in rng.choice(wl._FLAGS, rng.integers(0, 2), replace=False)]
        hs.append(h)
    return wl.copy_histories(hs)


def _next_rows(rng, hs):
    """One clean row per history, after its latest node."""
    rows = random_table(rng, len(hs))
    for row, h in zip(rows, hs):
        t, s = h.table[-1, :2] if len(h) else (0.0, 0.0)
        row[0], row[1] = t + rng.uniform(0.01, 0.5), s + rng.uniform(0.01, 0.5)
        row[2] = row[0]
    return _orthogonal(rows, rng.choice([0.0, 1.0], (len(hs), 1)))


@pytest.mark.parametrize("seed", range(63))
def test_the_write_checks_raise_and_flag_as_the_reference_checks(seed):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # a reference check of an inf entry warns
        # extend: 1 row, a few rows, or 10^4 rows to one history
        for m in (1, int(rng.integers(2, 9)), 10_000):
            (h,) = _histories(rng, 1, empty=(0,) if rng.random() < 0.5 else ())
            ref = h.copy()
            tail = h.table[-1, :2] if len(h) else np.zeros(2)
            tab = continued(h, random_table(rng, m)) if len(h) else random_table(rng, m)
            tab = _faulty(rng, _orthogonal(tab, rng.choice([0.0, 1.0])), tail,
                          _FAULTS[seed % len(_FAULTS)])
            want = _outcome(lambda: _check_rows_ref((ref,), _tails_ref((ref,)), tab, False), [ref])
            assert _outcome(lambda: h.extend(tab), [h]) == want
        # commit and staged: one row to each of N histories of one store
        for n in (1, int(rng.integers(2, 7))):
            empty = (int(rng.integers(n)),) if rng.random() < 0.5 else ()
            hs = _histories(rng, n, empty)
            refs = wl.copy_histories(hs)
            rows = _next_rows(rng, hs)
            tails = np.array([h.table[-1, :2] if len(h) else np.zeros(2) for h in hs])
            for fault in (_FAULTS[(seed + n) % len(_FAULTS)],
                          *rng.choice(_FAULTS, rng.integers(0, 2))):
                i = int(rng.integers(n))
                _inject(rng, rows, i, fault, tails[i])
            want = _outcome(lambda: _staged_check_ref(refs, rows), refs)
            assert _outcome(lambda: wl.staged(hs, rows), hs) == want
            want = _outcome(lambda: _check_rows_ref(refs, _tails_ref(refs), rows, True), refs)
            assert _outcome(lambda: wl.commit(hs, rows), hs) == want
