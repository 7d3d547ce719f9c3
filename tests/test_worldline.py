import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retnbody import worldline as wl


def sample(t, s, x3, u, a, c=1.0):
    """A node with the exact coordinate-time parametrization r^0 = c t."""
    return wl.WorldlineSample(t=float(t), s=float(s), r=np.r_[c * t, x3],
                              u=np.asarray(u, dtype=float), a=np.asarray(a, dtype=float))


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

    def test_em_mass(self):
        spec = wl.ParticleSpec(m0=1.0, q=2.0, sigma=0.5)
        assert spec.em_mass(c=2.0) == pytest.approx(4.0 / (4.0 * 0.5))


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
                h.u_dotdot_at_time(t)

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
            h.u_dotdot_at_time(0.0)

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
        got = h.u_dotdot_at_time(t0)
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
    """The raw packed store, capacity rows included."""
    bank = h._bank
    return bank._n.tobytes(), bank._latest.tobytes(), bank._key.tobytes(), bank._nodes.tobytes()


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
                assert np.array_equal(h.u_dotdot_at_time(t), ref.u_dotdot_at_time(t))
            _same_state(h.states_at(np.array(ts)), ref.states_at(np.array(ts)))
            staged_dd = h.u_dotdot_at_time(ref.samples[-2].t)
        # the latest committed node takes the staged segment, as in the
        # appended history
        assert not np.array_equal(staged_dd, h.u_dotdot_at_time(h.t_latest))

    def test_staged_reads_like_the_appended_history(self, tmp_path):
        hs = [_sin_history(), make_inertial(beta=0.3, n=9, t1=1.9)]
        wl.share_store(hs)
        rows = [_row(_tail(hs[0])), _row(sample(2.0, hs[1].samples[-1].s + 0.09,
                                                [0.6, 0.0, 0.0], hs[1].samples[-1].u,
                                                [0.0, 0.1, 0.0, 0.0]))]
        refs = [h.copy() for h in hs]
        for ref, row in zip(refs, rows):
            ref.extend(row)
        before = [(len(h), h.t_latest, h.table) for h in hs]
        with wl.staged(hs, rows):
            for h, ref in zip(hs, refs):
                assert len(h) == len(ref) and h.t_latest == ref.t_latest == 2.0
                assert np.array_equal(h.table, ref.table)
            _same_state(wl.gather(hs, [0, 1, 1], [1.99, 1.95, 2.0]),
                        wl.gather(refs, [0, 1, 1], [1.99, 1.95, 2.0]))
            hs[0].export_csv(tmp_path / "staged.csv", comment="c")
        refs[0].export_csv(tmp_path / "ref.csv", comment="c")
        assert (tmp_path / "staged.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        for h, (n, t_latest, table) in zip(hs, before):
            assert (len(h), h.t_latest) == (n, t_latest)
            assert np.array_equal(h.table, table)

    def test_nested_stages_grow_a_full_store(self):
        h = make_inertial()
        while len(h) + 1 < h._bank._cap[h._slot]:  # leave the one spare row
            h.extend(_block(h, m=1))
        before = h.table
        rows = _block(h, m=2)
        ref = h.copy()
        ref.extend(rows)
        with wl.staged([h], rows[:1]):
            with wl.staged([h], rows[1:]):  # the store grows under both stages
                assert len(h) == len(ref) and h._bank._cap[h._slot] > len(h)
                ts = np.linspace(h.t_latest - 1.5, h.t_latest, 7)
                _same_state(h.states_at(ts), ref.states_at(ts))
            assert h.t_latest == rows[0, 0]
        assert np.array_equal(h.table, before)

    def test_staged_rejects_non_advancing_rows(self):
        hs = [make_inertial(), make_inertial(beta=0.3)]
        wl.share_store(hs)
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
        assert np.array_equal(h.u_dotdot_at_time(1.95), ref.u_dotdot_at_time(1.95))


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
        with pytest.raises(ValueError, match="r must be a finite four-vector"):
            with wl.staged([h], [_row(self._nan_r_sample(h.t_latest + 0.1))]):
                pass
        assert _store(h) == before

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
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.sampled_from(["own", "shared", "mixed"]), st.booleans())
def test_gather_matches_the_per_history_lookup_bit_for_bit(seed, k, stores, stage):
    rng = np.random.default_rng(seed)
    hs = []
    for i in range(k):
        h = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, f"h{i}"))
        h.extend(random_table(rng, int(rng.integers(1, 10))))
        hs.append(h)
    if stores == "shared":
        wl.share_store(hs)
    elif stores == "mixed":
        wl.share_store(hs[::2])
    staged = []
    if stage:
        rows = random_table(rng, k)
        rows[:, 0] = [h.t_latest + 0.3 for h in hs]
        rows[:, 2] = rows[:, 0]
        # a stage writes into one store: one staged block per store
        stores = {}
        for i, h in enumerate(hs):
            stores.setdefault(id(h._bank), []).append(i)
        staged = [wl.staged([hs[i] for i in idx], rows[idx]) for idx in stores.values()]
    for block in staged:
        block.__enter__()
    try:
        src, ts = _queries(rng, hs)
        got = wl.gather(hs, src, ts)
        for m, (i, t) in enumerate(zip(src.tolist(), ts.tolist())):
            want = reference_state(hs[i], t)
            for name in ("t", "s", "r", "u", "a"):
                assert np.array_equal(getattr(got, name)[m], getattr(want, name)[0]), (i, t, name)
            _same_state(hs[i].states_at([t]), want)
    finally:
        for block in staged:
            block.__exit__(None, None, None)


def test_gather_refuses_the_first_query_past_the_present_in_request_order():
    rng = np.random.default_rng(3)
    hs = [wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1)) for _ in range(3)]
    for h in hs:
        h.extend(random_table(rng, 5))
    wl.share_store(hs[:2])
    late = [h.t_latest + 1.0 for h in hs]
    for src in ([2, 0, 1], [1, 2, 0]):
        ts = [hs[src[0]].t_first, late[src[1]], late[src[2]]]
        with pytest.raises(wl.QueryBeyondPresent) as got:
            wl.gather(hs, src, ts)
        assert str(got.value) == (f"query at t={late[src[1]]!r} is beyond latest stored "
                                  f"t={hs[src[1]].t_latest!r}")
    with pytest.raises(wl.QueryBeyondPresent, match="t=nan is beyond"):
        wl.gather(hs, [0, 1], [hs[0].t_first, float("nan")])
    empty = wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1))
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        wl.gather([hs[0], empty], [0, 1], [hs[0].t_first, 0.0])


def test_share_store_keeps_the_histories_and_their_nodes():
    rng = np.random.default_rng(5)
    hs = [wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, f"h{i}")) for i in range(3)]
    for h in hs:
        h.extend(random_table(rng, 7))
    hs[1].hard_tol = 1e-4
    kept = [(id(h), h.table, list(h.flags), h.hard_tol) for h in hs]
    wl.share_store(hs)
    assert len({id(h._bank) for h in hs}) == 1
    for h, (ident, tab, flags, hard_tol) in zip(hs, kept):
        assert (id(h), h.flags, h.hard_tol) == (ident, flags, hard_tol)
        assert np.array_equal(h.table, tab)
    # each history still grows on its own
    hs[1].extend(continued(hs[1], random_table(rng, 40)))
    assert len(hs[1]) == 47
    for h, (_, tab, _, _) in zip(hs[::2], kept[::2]):
        assert np.array_equal(h.table, tab)


def test_stores_are_made_of_one_light_speed():
    hs = [make_inertial(c=1.0), make_inertial(c=2.0)]
    before = [(h._bank, _store(h)) for h in hs]
    with pytest.raises(ValueError, match="share one light speed"):
        wl.share_store(hs)
    with pytest.raises(ValueError, match="share one light speed"):
        wl.copy_histories(hs)
    with pytest.raises(ValueError, match="share one light speed"):
        wl.gather(hs, [0, 1], [-0.5, -0.5])
    assert [(h._bank, _store(h)) for h in hs] == before
    assert hs[1].state_at_time(-0.5).r[0] == -1.0


def _committed_store():
    rng = np.random.default_rng(11)
    hs = [wl.WorldlineHistory(wl.ParticleSpec(1.0, 1.0, 0.1, label)) for label in "abc"]
    for h in hs:
        tab = random_table(rng, 4)
        tab[:, 10:] = 0.0  # no flag before the commit
        h.extend(tab)
    wl.share_store(hs)
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
    refs = [h.copy() for h in hs]
    rows[:, 2] *= 1.0 + 1e-12  # r^0 canonicalized to c t
    wl.commit(hs, rows)
    for ref, row in zip(refs, rows):
        ref.append(wl.WorldlineSample(row[0], row[1], row[2:6], row[6:10], row[10:]))
    src, ts = _queries(np.random.default_rng(2), hs)
    _same_state(wl.gather(hs, src, ts), wl.gather(refs, src, ts))
    for h, ref in zip(hs, refs):
        assert np.array_equal(h.table, ref.table) and h.flags == ref.flags
