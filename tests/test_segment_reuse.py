"""One lookup per retarded event: a root batch keeps the segment each
root's last gather read (DelayRoots.segment), later Newton iterates inside
it and the asymptotic self-force's u'' are read off it, and every root,
force and exception keeps the bits of a fresh lookup."""

import contextlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from retnbody import dynamics as dyn
from retnbody import fields as fl
from retnbody import harness
from retnbody import retardation as ret
from retnbody import worldline as wl
from retnbody.fields import SelfForceMode
from retnbody.minkowski import dots, lower
from retnbody.worldline import (
    QueryBeyondPresent, _combine, _hermite_dd, _store_of, _weights, _DU, _U)
from test_retardation import solve_seeded

# -- the reference: u'' as every self root read it before segments were kept --------
# verbatim copies of worldline.u_dotdot and worldline._segment_udotdot, each
# asymptotic self root looked up again by key


def reference_u_dotdot(histories, src, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    bank, slots = _store_of(tuple(histories))
    slot = slots[src]
    bank._present(slot, ts, at_latest=True)
    i, start = bank._index(slot, ts), bank._start[slot]
    i = np.where(i == start + bank._n[slot], i - 1, i)
    t0, p, t1, q = bank._lookup(slot, i)
    # rows at or past their node t0 read the segment (t0, t1); with
    # i == start that is a one-node history queried at its node
    seg = ts >= t0
    if np.count_nonzero(seg & (i == start)):
        raise QueryBeyondPresent("u_dotdot needs a segment; history holds one node")
    out = np.zeros((len(ts), 4))
    out[seg] = reference_segment_udotdot(*(x[seg] for x in (ts, t0, p, t1, q)), bank.c)
    return out


def reference_segment_udotdot(t, t0, p, t1, q, c) -> np.ndarray:
    """d^2 u / ds^2 of the u-interpolant at times inside segments, (M, 4)."""
    h = t1 - t0
    hx = (h[:, None], ((t - t0) / h)[:, None])
    w, d = _weights(*hx)
    y = (p[:, _U], p[:, _DU], q[:, _U], q[:, _DU])
    du, ddu = _combine(d, *y), _hermite_dd(*y, *hx)
    # d/ds = (gamma/c) d/dt applied twice to u, so of the value only u^0
    # is read; float_power squares with C's pow, as a float's ** 2 does
    # (x * x can differ in the last bit)
    g = _combine(w, *(v[:, :1] for v in y)) / c
    return np.float_power(g, 2.0) * ddu + g * (du[:, :1] / c) * du


def reference_g(roots, rows) -> np.ndarray:
    """The asymptotic self-force of the self roots rows, each observed at
    the time of its event plus its delay, u'' from reference_u_dotdot."""
    hs, src = roots.histories, roots.source
    c = hs[0].c
    q = np.array([hs[j].spec.q for j in roots.src[rows]])
    t = roots.events[rows, 0] / c  # c = 1: the observation time, bit for bit
    u, a = src.u[rows], src.a[rows]
    udd = reference_u_dotdot(hs, roots.src[rows], t - roots.t_ret[rows])
    m_em = q * q / (c * c * roots.sigma[rows])
    return lower((-m_em * c)[:, None] * a
                 - (q * q / (3.0 * c))[:, None] * (udd - u * dots(u, udd)[:, None]))


def capture_g(monkeypatch):
    """Every fields._asymptotic_g call as (roots, rows, g, reference g),
    the reference made right after the call, in the same store state."""
    calls = []

    def recorded(roots, rows, em, rad):
        g = real(roots, rows, em, rad)
        calls.append((roots, rows, g, reference_g(roots, rows)))
        return g

    real = fl._asymptotic_g
    monkeypatch.setattr(fl, "_asymptotic_g", recorded)
    return calls


def kinds(roots, rows):
    """How each self root's source event lies on its history: 'before'
    the first node, on the 'latest' node, on another 'node', or 'inside' a
    segment (the nodes as they stand, an open stage's once read)."""
    out = []
    for j, t in zip(roots.src[rows].tolist(), roots.source.t[rows].tolist()):
        nodes = roots.histories[j].table[:, 0]
        out.append("before" if t < nodes[0] else "latest" if t == nodes[-1]
                   else "node" if t in nodes else "inside")
    return out


# -- systems whose self roots land where each test needs them -----------------------

# dyadic radii, so sigma^2 and sqrt(sigma^2) are exact and a cold self
# root's static guess t - sigma / c lands on the node grid below
SIGMAS = (0.5, 0.75, 0.625, 0.5625, 0.875, 0.6875)
GRID = 0.0625
T_OBS = 1.0


def _specs(n):
    return [wl.ParticleSpec(1.0 + 0.1 * k, (0.3 + 0.02 * k) * (-1) ** k, SIGMAS[k], f"p{k}")
            for k in range(n)]


def _orbit(k, n, period):
    """x, dx/dt and d^2x/dt^2 of particle k of n on a ring of radius 1.5 n / 2
    (0 for n = 1), circling its place with the given period."""
    ang = 2.0 * math.pi * k / n
    center = 0.75 * n * np.array([math.cos(ang), math.sin(ang), 0.0]) if n > 1 else np.zeros(3)
    amp, om, ph = 0.02 + 0.004 * k, 2.0 * math.pi / period, 0.7 + k

    def x(t):
        return center + amp * np.array([math.sin(om * t + ph), 0.6 * math.cos(om * t + ph), 0.0])

    def v(t):
        return amp * om * np.array([math.cos(om * t + ph), -0.6 * math.sin(om * t + ph), 0.0])

    def acc(t):
        return -amp * om * om * np.array([math.sin(om * t + ph), 0.6 * math.cos(om * t + ph),
                                          0.0])

    return x, v, acc


def _system(n, t_first, t_last, period=None):
    """n curved histories in one store on the dyadic grid from t_first to
    t_last (one per particle, or one for all); each orbit's period is
    period (its radius when None, so the particle is back where it was one
    self delay ago)."""
    hs = []
    for k, spec in enumerate(_specs(n)):
        end = t_last[k] if np.ndim(t_last) else t_last
        nodes = np.arange(round((end - t_first) / GRID) + 1) * GRID + t_first
        hs.append(wl.history_from_kinematics(
            spec, nodes, *_orbit(k, n, spec.sigma if period is None else period)))
    return wl.copy_histories(hs)


def _present(hs, t):
    return wl.gather(hs, np.arange(len(hs)), np.full(len(hs), t))


def _latest_now(hs, t):
    """States at time t past each history's latest node, each at the
    place of that node, so a self root of radius c (t - t_latest) is the
    latest node; one node row per history at t for a stage."""
    rows = []
    for h in hs:
        last = h.table[-1]
        x, v, acc = _orbit(int(h.spec.label[1:]), len(hs), h.spec.sigma)
        u = wl._four_velocity(v(t), h.c)
        rows.append(np.concatenate(([t, last[1] + 1e-3, h.c * t], last[3:6], u, np.zeros(4))))
    rows = np.array(rows)
    return dyn._states(rows), rows


def _g_of(monkeypatch, hs, now, prev=None):
    calls = capture_g(monkeypatch)
    f, batch = fl.total_faraday(hs, now, fl.ExternalFieldModel.none(), SelfForceMode.ASYMPTOTIC,
                                prev)
    [(roots, rows, g, want)] = calls
    assert roots is batch[1] and len(rows) == len(hs)
    return roots, rows, g, want, batch


OBSERVERS = pytest.mark.parametrize("n", [1, 2, 6])


@OBSERVERS
def test_g_inside_a_segment_is_the_reference_bit_for_bit(monkeypatch, n):
    # cold and then warm, every self root strictly inside a segment: u''
    # is read off the segment the solver's gather found, with no lookup
    hs = _system(n, -3.0, 1.0, period=0.9)
    batch = None
    for t in (0.9, 0.93, 0.96):
        roots, rows, g, want, batch = _g_of(monkeypatch, hs, _present(hs, t), batch)
        assert kinds(roots, rows) == ["inside"] * n
        assert np.count_nonzero(g) and g.tobytes() == want.tobytes()


@OBSERVERS
def test_g_on_a_node_is_the_reference_bit_for_bit(monkeypatch, n):
    # each particle is back where it was one self delay ago, so its self
    # root converges on its static guess, a node: u'' reads the segment
    # that starts there, through u_dotdot
    hs = _system(n, -2.0, T_OBS)
    roots, rows, g, want, _ = _g_of(monkeypatch, hs, _present(hs, T_OBS))
    assert kinds(roots, rows) == ["node"] * n
    assert g.tobytes() == want.tobytes()


@OBSERVERS
@pytest.mark.parametrize("stage", [False, True], ids=["committed", "open_stage"])
def test_g_on_the_latest_node_is_the_reference_bit_for_bit(monkeypatch, n, stage):
    # each self root is its history's latest node. Committed, u'' reads
    # the segment ending there; with an open stage, u_dotdot writes it and
    # reads the segment from the node to the staged one. The row after
    # the latest node is no node of the history, and serves no read
    hs = _system(n, -2.0, [T_OBS - s for s in SIGMAS[:n]])
    now, rows_at_t = _latest_now(hs, T_OBS)
    if stage:
        with wl.staged(hs, rows_at_t) as st:
            roots, rows, g, want, _ = _g_of(monkeypatch, hs, now)
            assert st.read
            assert kinds(roots, rows) == ["node"] * n  # the staged node follows
    else:
        roots, rows, g, want, _ = _g_of(monkeypatch, hs, now)
        assert kinds(roots, rows) == ["latest"] * n
    assert g.tobytes() == want.tobytes()


@OBSERVERS
def test_g_before_the_first_node_is_the_reference_bit_for_bit(monkeypatch, n):
    # histories that start after the self roots: u'' is zero there, and
    # the inertial extension keeps an empty segment
    hs = _system(n, 0.9375, T_OBS)
    roots, rows, g, want, _ = _g_of(monkeypatch, hs, _present(hs, T_OBS))
    assert kinds(roots, rows) == ["before"] * n
    assert not np.count_nonzero(roots.segment.t1[rows] - roots.segment.t0[rows])
    assert g.tobytes() == want.tobytes()


@OBSERVERS
def test_g_inside_the_step_is_the_reference_bit_for_bit(monkeypatch, n):
    # radii below c dt: at the step's last stages the self roots fall
    # inside the step, on the segment ending at the staged node
    specs = [wl.ParticleSpec(1.0, 0.1 * (-1) ** k, 0.015 + 0.001 * k, f"p{k}") for k in range(n)]
    ring = [[0.6 * n * math.cos(2 * math.pi * k / n), 0.6 * n * math.sin(2 * math.pi * k / n), 0]
            for k in range(n)]
    st = dyn.seed(specs, ring, [[0.05, 0.1 * (-1) ** k, 0.0] for k in range(n)], dt=0.02,
                  mode=SelfForceMode.ASYMPTOTIC,
                  external=fl.ExternalFieldModel.uniform(E=(0.2, 0.0, 0.1)))
    calls = capture_g(monkeypatch)
    in_step = 0
    for _ in range(3):
        t, before = st.t_now, len(calls)
        dyn.step(st)
        for roots, rows, g, want in calls[before:]:
            assert g.tobytes() == want.tobytes()
            in_step += np.count_nonzero(roots.source.t[rows] > t)
    assert len(calls) >= 13 and in_step >= 3 * n


@pytest.mark.parametrize("n", [2, 6])
def test_g_of_roots_converging_on_different_iterations_is_the_reference(monkeypatch, n):
    # the first particle is at rest, so its self root converges on its
    # static guess; the others need Newton steps, so that root is read
    # again at its kept delay while they iterate
    hs = _system(n, -3.0, 1.0, period=0.9)
    rest = wl.inertial_history(hs[0].spec, hs[0].table[0, 3:6], np.zeros(3), -3.0, 1.0, 65)
    hs = wl.copy_histories([rest, *hs[1:]])
    reads = []

    def read(histories, src, ts, kept=None):
        reads.append(ts.copy())
        return real_read(histories, src, ts, kept)

    real_read = ret._read
    monkeypatch.setattr(ret, "_read", read)
    roots, rows, g, want, _ = _g_of(monkeypatch, hs, _present(hs, 0.93))
    [own] = rows[roots.src[rows] == 0]  # the at-rest particle's self root
    ts = np.array(reads)
    assert len(ts) >= 2
    assert np.all(ts[:, own] == ts[0, own])  # converged on the first read
    assert np.count_nonzero(ts[1:] != ts[:-1])  # other roots still iterated
    assert kinds(roots, rows) == ["inside"] * n
    assert g.tobytes() == want.tobytes()


# -- the lookup budget ----------------------------------------------------------------


ROOT = os.path.join(os.path.dirname(__file__), "..")


def _compare_asymptotic_state():
    """compare-asymptotic's pair at sigma 0.7, asymptotic, after 15 steps."""
    cfg = harness.load_config(os.path.join(ROOT, "configs", "compare_asymptotic.yaml"))
    parts = tuple(replace(p, sigma=0.7) for p in cfg.particles)
    st = harness.build_state(replace(cfg, particles=parts), ROOT, mode="asymptotic")
    for _ in range(15):
        dyn.step(st)
    return st


def count_lookups(monkeypatch):
    """Counts of the solver's gathers (retardation._read) and of key
    searches (HistoryBank._index)."""
    counts = {"read": 0, "index": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ret, "_read", counted("read", ret._read))
    monkeypatch.setattr(wl.HistoryBank, "_index", counted("index", wl.HistoryBank._index))
    return counts


def test_a_warm_asymptotic_evaluation_looks_each_event_up_once(monkeypatch):
    # one key search per solver gather: u'' of every self root is read
    # off the segment the gather found
    st = _compare_asymptotic_state()
    now, _, _, batch = st.last_eval[1]
    counts = count_lookups(monkeypatch)
    f, (plan, roots) = fl.total_faraday(st.histories, now, st.external, st.mode, batch)
    assert counts == {"read": 1, "index": 1}
    assert np.all(roots.segment.t0[plan.g_row] < roots.source.t[plan.g_row])


def test_a_newton_iterate_inside_the_segment_makes_no_lookup(monkeypatch):
    # a one-root batch seeded off its root takes a Newton step that stays
    # in the segment of its first gather: two gathers, one key search, and
    # the root of a batch that looks every iterate up
    st = _compare_asymptotic_state()
    h = st.histories[0]
    now = wl.gather((h,), 0, [st.t_now])
    exact = ret.solve_delays((h,), 0, now.r, 0.7, obs=0, now=now)
    seed = exact.t_ret * (1.0 + 1e-4)
    fresh = _solve_fresh(monkeypatch, (h,), 0, now.r, 0.7, obs=0, now=now, seed=seed)
    counts = count_lookups(monkeypatch)
    roots = solve_seeded((h,), 0, now.r, 0.7, obs=0, now=now, seed=seed)
    assert counts["read"] >= 2 and counts["index"] == 1
    assert_same_roots(roots, fresh)


# -- kept segments change no bits -----------------------------------------------------


def _solve_fresh(monkeypatch, *args, **kwargs):
    """solve_seeded with every iterate looked up, as before segments were kept."""
    real = ret._read
    with monkeypatch.context() as m:
        m.setattr(ret, "_read", lambda histories, src, ts, kept=None: real(histories, src, ts))
        return solve_seeded(*args, **kwargs)


def assert_same_roots(a, b):
    for name in ("t_ret", "s_ret", "residual"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in a.source._fields:
        assert getattr(a.source, name).tobytes() == getattr(b.source, name).tobytes(), name


@pytest.mark.parametrize("offset", [1e-9, 1e-5, 1e-3, 0.3, -0.3, 3.0])
def test_kept_segments_give_the_roots_of_fresh_lookups(monkeypatch, offset):
    # seeds off the roots by various amounts, so iterates stay inside,
    # leave and bisect: each batch has the bits of one that looks every
    # iterate up
    hs = _system(6, -6.0, 1.0, period=0.9)
    plan = ret._root_plan(tuple(h.spec for h in hs), tuple(range(6)), SelfForceMode.EXACT)
    now = _present(hs, 0.97)
    events, t = now.r[plan.slot], now.t[plan.src]
    here = wl.gather(hs, plan.src, t)
    cold = ret.solve_delays(hs, plan.src, events, plan.sigma, obs=plan.obs, now=here)
    rng = np.random.default_rng(round(abs(1e3 * offset)))
    seed = cold.t_ret * (1.0 + offset * rng.uniform(0.5, 1.5, len(cold.t_ret)))
    args = (hs, plan.src, events, plan.sigma)
    kept = solve_seeded(*args, obs=plan.obs, now=here, seed=seed)
    assert_same_roots(kept, _solve_fresh(monkeypatch, *args, obs=plan.obs, now=here, seed=seed))


def _full_pair():
    """Two inertial histories in one store: the first has one spare row
    left in its run, so a staged node fills it and the row after that is
    the second history's first node (at t = 5)."""
    a = wl.inertial_history(wl.ParticleSpec(1.0, 0.3, 0.3, "a"), [0.0, 0.0, 0.0],
                            [0.2, 0.0, 0.0], -1.0, 1.0, 33)
    b = wl.inertial_history(wl.ParticleSpec(1.0, -0.3, 0.3, "b"), [3.0, 0.0, 0.0],
                            np.zeros(3), 5.0, 6.0, 5)
    hs = wl.copy_histories([a, b])
    bank = hs[0]._bank
    more = int(bank._cap[0]) - 1 - len(hs[0])
    t = 1.0 + 0.0625 * np.arange(1, more + 1)
    a_more = wl.inertial_history(hs[0].spec, [0.0, 0.0, 0.0], [0.2, 0.0, 0.0], -1.0,
                                 t[-1], 33 + more)
    hs[0].extend(a_more.table[33:])
    assert len(hs[0]) == bank._cap[0] - 1
    return hs


def _stage_row(h, t):
    x, u = np.array([0.2 * (t + 1.0), 0.0, 0.0]), wl._four_velocity([0.2, 0.0, 0.0], h.c)
    s = h.table[-1, 1] + (t - h.t_latest) / u[0]
    return np.concatenate(([t, s, h.c * t], x, u, np.zeros(4)))[None, :]


@pytest.mark.parametrize("case", ["committed", "open_stage", "read_stage"])
def test_a_first_gather_on_the_latest_node_keeps_no_segment(monkeypatch, case):
    # the first iterate is exactly the latest node of a history whose
    # next row is a spare one (committed, open stage) or, once the stage
    # is read, the next history's first node. The Newton step then moves
    # past that node: each batch raises, or solves, as one that looks
    # every iterate up
    def run(solve):
        hs = _full_pair()
        h = hs[0]
        t_stage = h.t_latest + 0.25
        with contextlib.ExitStack() as stack:
            if case != "committed":
                stage = stack.enter_context(wl.staged((h,), _stage_row(h, t_stage)))
            if case == "read_stage":
                wl.gather(hs, 0, [t_stage - 0.1])  # writes the stage
                assert stage.read and len(h) == h._bank._cap[0]
            t_latest = h.t_latest
            t_obs = t_latest + 0.5
            x = wl.gather(hs, 0, [t_latest]).r[0, 1:]
            event = np.concatenate(([h.c * t_obs], x + [0.1, 0.0, 0.0]))
            now = wl.WorldlineSample(np.array([t_obs]), np.zeros(1), event[None, :], None, None)
            try:
                return solve(hs, 0, event, 0.3, obs=-1, now=now,
                             seed=np.array([t_obs - t_latest]))
            except QueryBeyondPresent as exc:
                return exc

    got = run(solve_seeded)
    want = run(lambda *a, **k: _solve_fresh(monkeypatch, *a, **k))
    if case == "open_stage":
        assert_same_roots(got, want)
    else:
        assert isinstance(got, QueryBeyondPresent) and str(got) == str(want)


# -- cheap immutable records ------------------------------------------------------------


def test_samples_and_root_sets_build_by_position_and_keyword_and_stay_immutable():
    parts = (np.zeros(1), np.ones(1), np.zeros((1, 4)), np.ones((1, 4)), np.zeros((1, 4)))
    for sample in (wl.WorldlineSample(*parts),
                   wl.WorldlineSample(**dict(zip(("t", "s", "r", "u", "a"), parts)))):
        assert sample._fields == ("t", "s", "r", "u", "a")
        assert all(x is y for x, y in zip(sample, parts))
    h = wl.inertial_history(wl.ParticleSpec(1.0, 0.3, 0.3, "a"), [0, 0, 0], [0.1, 0, 0],
                            -2.0, 1.0, 25)
    roots = ret.solve_delays((h,), 0, [0.0, 0.5, 0.0, 0.0], 0.3)
    fields = ("histories", "src", "obs", "events", "sigma", "t_ret", "s_ret", "source",
              "residual", "segment")
    assert roots._fields == fields and isinstance(roots.segment, wl._Segment)
    assert ret.DelayRoots(*roots[:9]).segment is None
    assert ret.DelayRoots(**roots._asdict()).root(0).t_ret == roots.root(0).t_ret
    for record, name in ((sample, "t"), (roots, "t_ret"), (roots, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
