import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retnbody import retardation as ret
from retnbody import worldline as wl
from retnbody.fields import SelfForceMode


def static_history(x3, sigma=1.0, q=1.0, t0=-20.0, t1=2.0, n=12, c=1.0):
    spec = wl.ParticleSpec(m0=1.0, q=q, sigma=sigma, label="s")
    return wl.inertial_history(spec, np.asarray(x3, dtype=float),
                               np.zeros(3), t0, t1, n, c=c)


def uniform_history(x3, v3, sigma=1.0, q=1.0, t0=-40.0, t1=2.0, n=24, c=1.0):
    spec = wl.ParticleSpec(m0=1.0, q=q, sigma=sigma, label="u")
    return wl.inertial_history(spec, np.asarray(x3, dtype=float),
                               np.asarray(v3, dtype=float), t0, t1, n, c=c)


def stub_gather(histories, src, ts):
    """Stand-in for retardation.gather over stub sources that only answer
    state_at_time: their states, asked one time at a time, stacked as one
    sample with r^0 = c t."""
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    src = np.broadcast_to(src, ts.shape)
    states = [histories[k].state_at_time(t) for k, t in zip(src.tolist(), ts.tolist())]
    r, u, a = (np.array([getattr(x, name) for x in states]).reshape(-1, 4)
               for name in ("r", "u", "a"))
    r[:, 0] = histories[0].c * ts
    return wl.WorldlineSample(ts, np.array([x.s for x in states], dtype=np.float64), r, u, a)


def stub_read(histories, src, ts, kept=None):
    """Stand-in for retardation._read (the solver's gather) over the same
    stub sources: their states, each with an empty segment (t1 = t0), so
    no later iterate is read off it."""
    states = stub_gather(histories, src, ts)
    rows = np.zeros((len(states.t), wl._WIDTH))
    return states, wl._Segment(states.t, rows, states.t, rows, np.zeros((len(states.t), 4)))


def stub_sources(monkeypatch):
    """Point the solver's gathers at stub sources (stub_gather, stub_read)."""
    monkeypatch.setattr(ret, "gather", stub_gather)
    monkeypatch.setattr(ret, "_read", stub_read)


def bisect_oracle(obs_x3, src_pos_fn, t_obs, sigma, c=1.0, lo=0.0, hi=64.0):
    """Independent bracketing bisection on the squared delay equation."""
    def F(tau):
        dx = obs_x3 - src_pos_fn(t_obs - tau)
        return (c * tau) ** 2 - float(dx @ dx) - sigma**2

    assert F(lo) <= 0.0 < F(hi)
    for _ in range(220):
        mid = 0.5 * (lo + hi)
        if F(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSelfDelay:
    def test_static_sigma_one(self):
        h = static_history([0.0, 0.0, 0.0], sigma=1.0)
        root = ret.self_delay(h, 0.5)
        assert root.t_ret == pytest.approx(1.0, abs=1e-13)
        assert root.s_ret == pytest.approx(1.0, abs=1e-12)
        assert root.residual <= ret.root_tolerance(0.0, 1.0)

    def test_static_sigma_zero_degenerate(self):
        h = static_history([0.0, 0.0, 0.0], sigma=1.0)
        root = ret.self_delay(h, 0.5, sigma=0.0)
        assert root.t_ret == 0.0

    def test_uniform_motion_gamma_sigma(self):
        # emission shell of a uniformly moving particle: c tau = gamma sigma
        beta = 0.5
        g = 1.0 / np.sqrt(1.0 - beta**2)
        h = uniform_history([0.0, 0.0, 0.0], [beta, 0.0, 0.0], sigma=1.0)
        root = ret.self_delay(h, 1.0)
        assert root.t_ret == pytest.approx(g, abs=1e-11)

    def test_uniform_motion_vs_bisection_oracle(self):
        beta = np.array([0.3, -0.45, 0.1])
        x0 = np.array([0.2, -0.1, 0.4])
        h = uniform_history(x0, beta, sigma=0.7)
        t_obs = 1.2
        root = ret.self_delay(h, t_obs)
        obs_x = h.state_at_time(t_obs).r[1:]
        # the helper anchors the position at its start time t0 = -40
        oracle = bisect_oracle(obs_x, lambda t: x0 + beta * (t + 40.0),
                               t_obs, 0.7)
        assert root.t_ret == pytest.approx(oracle, abs=1e-12)

    def test_no_convergence_on_superluminal_stub(self, monkeypatch):
        # a chasing source that outruns its own emission shell never
        # produces a causal root; the solver must fail loudly
        class Chasing:
            c = 1.0
            t_first = -1e9
            spec = wl.ParticleSpec(1.0, 1.0, 0.5)

            def state_at_time(self, t):
                x = np.array([1.2 * t, 0.0, 0.0])
                return wl.WorldlineSample(t=t, s=t, r=np.concatenate(([t], x)),
                                          u=np.array([1.0, 0, 0, 0]),
                                          a=np.zeros(4))

        stub_sources(monkeypatch)
        with pytest.raises(ret.NoConvergence):
            ret.self_delay(Chasing(), 0.0, sigma=0.5)


GRID_BETAS = (0.0, 0.5, 0.9, 0.99, 0.999)
GRID_SIGMAS = (0.05, 0.7, 2.0)
GRID_KINDS = ("self", "approaching", "receding")

# An approaching root at beta = 0.999 reaches back tau ~ 1500, where the
# rounding noise of f (about eps (c tau)^2) exceeds root_tolerance: the
# stop rule holds only by chance (it does at sigma = 2).
_BELOW_NOISE = pytest.mark.xfail(
    raises=ret.NoConvergence, strict=True,
    reason="root_tolerance is below the rounding noise of f at tau ~ 1500")
GRID = [pytest.param(kind, beta, sigma, marks=_BELOW_NOISE
                     if (kind, beta) == ("approaching", 0.999) and sigma < 2.0 else ())
        for kind in GRID_KINDS for beta in GRID_BETAS for sigma in GRID_SIGMAS]


def grid_case(kind, beta, sigma):
    """One solver-grid root: an inertial source on [-300, 2] (64 nodes)
    moving along x at beta, at the origin at t_obs = 1, seen by itself or
    by an observer 1.5 ahead of it (approaching) or behind it (receding).
    Returns the root call and the bisection oracle's root."""
    v = np.array([beta, 0.0, 0.0])
    h = uniform_history(-301.0 * v, v, sigma=sigma, t0=-300.0, t1=2.0, n=64)
    if kind == "self":
        obs_x = h.state_at_time(1.0).r[1:]
        call = partial(ret.self_delay, h, 1.0)
    else:
        obs_x = np.array([1.5 if kind == "approaching" else -1.5, 0.0, 0.0])
        call = partial(ret.pair_delay, h, np.r_[1.0, obs_x], sigma)
    return call, bisect_oracle(obs_x, lambda t: v * (t - 1.0), 1.0, sigma, hi=1e4)


@pytest.mark.parametrize("kind,beta,sigma", GRID)
def test_grid_root_matches_oracle(kind, beta, sigma):
    call, oracle = grid_case(kind, beta, sigma)
    tau = call().t_ret
    assert abs(tau - oracle) <= 1e-10 * (1.0 + tau)


@pytest.mark.parametrize("kind,beta,sigma", GRID)
def test_grid_root_query_budget(kind, beta, sigma, monkeypatch):
    # history queries made inside one root call, the observation query included
    call = grid_case(kind, beta, sigma)[0]
    times = []
    query = wl.WorldlineHistory.state_at_time

    def counting(self, t):
        times.append(t)
        return query(self, t)

    monkeypatch.setattr(wl.WorldlineHistory, "state_at_time", counting)
    call()
    assert len(times) <= (16 if kind == "self" else 8)


_SOLVABLE = [p.values for p in GRID if not p.marks]
_BELOW_NOISE_CASES = [p.values for p in GRID if p.marks]


def grid_batch(cases):
    """The grid cases as one solve_delays batch over copies of their
    histories in one store, each source seen by itself (self) or by its
    1.5-away observer."""
    hs, events, obs = [], [], []
    for m, (kind, beta, sigma) in enumerate(cases):
        v = np.array([beta, 0.0, 0.0])
        h = uniform_history(-301.0 * v, v, sigma=sigma, t0=-300.0, t1=2.0, n=64)
        hs.append(h)
        events.append(h.state_at_time(1.0).r if kind == "self" else
                      np.array([1.0, 1.5 if kind == "approaching" else -1.5, 0.0, 0.0]))
        obs.append(m if kind == "self" else -1)
    return ret.solve_delays(wl.copy_histories(hs), np.arange(len(cases)), events,
                            [sigma for _, _, sigma in cases], obs=obs)


def _solo(call):
    """The one-root batch a self_delay or pair_delay call solves."""
    batches = []

    def recorded(*args, **kwargs):
        batches.append(solve(*args, **kwargs))
        return batches[-1]

    solve = ret.solve_delays
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ret, "solve_delays", recorded)
        call()
    [batch] = batches
    return batch


def _same_root(batch, m, other, k=0):
    """Row m of batch has the bits of row k of other: its delay, retarded
    s, residual, source event and the segment that event was read from."""
    def bits(roots, i):
        return [np.asarray(x[i]).tobytes() for x in (
            roots.t_ret, roots.s_ret, roots.residual, *roots.source, *roots.segment)]

    return bits(batch, m) == bits(other, k)


def test_grid_as_one_batch_matches_one_root_solves_bit_for_bit():
    # the batch's roots converge on different reads, each kept root read
    # again while the others iterate, and keep a one-root solve's bits
    batch = grid_batch(_SOLVABLE)
    for m, case in enumerate(_SOLVABLE):
        call, oracle = grid_case(*case)
        assert _same_root(batch, m, _solo(call))
        tau = batch.t_ret[m]
        assert abs(tau - oracle) <= 1e-10 * (1.0 + tau)
    # a root's bits do not depend on its place in the batch
    perm = np.random.default_rng(3).permutation(len(_SOLVABLE))
    shuffled = grid_batch([_SOLVABLE[k] for k in perm])
    for m, k in enumerate(perm):
        assert _same_root(shuffled, m, batch, k)


def test_unordered_batch_over_shared_sources_matches_one_root_solves():
    # static sources converge on their first iterate, all in one pass
    hs = wl.copy_histories([static_history([2.0, 0.0, 0.0], sigma=0.5),
                            static_history([0.0, -1.0, 0.5]),
                            uniform_history([0.5, 0.2, 0.0], [0.3, -0.2, 0.1], sigma=0.7)])
    for src in ([2, 0, 1, 0, 2, 1], [1, 0, 1, 0]):
        events = [np.array([0.5, 0.1 * m, -0.2, 0.3]) for m in range(len(src))]
        sigmas = [0.5 + 0.1 * m for m in range(len(src))]
        batch = ret.solve_delays(hs, src, events, sigmas)
        for m, (j, event, sigma) in enumerate(zip(src, events, sigmas)):
            assert _same_root(batch, m, _solo(partial(ret.pair_delay, hs[j], event, sigma)))


def test_an_empty_batch_solves_to_no_roots():
    hs = wl.copy_histories([static_history([0.0, 0.0, 0.0])])
    roots = ret.solve_delays(hs, np.zeros(0, dtype=np.intp), np.zeros((0, 4)), np.zeros(0))
    assert roots.t_ret.shape == roots.residual.shape == (0,)
    assert roots.source.r.shape == (0, 4) and len(roots.segment.t0) == 0


def test_grid_roots_below_the_noise_fail_in_their_own_batch():
    with pytest.raises(ret.NoConvergence) as err:
        grid_batch(_BELOW_NOISE_CASES)
    assert "source 'u'" in str(err.value) and "t_obs=1.0" in str(err.value)


class TestPairDelay:
    def test_three_four_five(self):
        h = static_history([3.0, 0.0, 0.0], sigma=1.0)
        obs = np.array([0.6, 0.0, 0.0, 0.0])
        root = ret.pair_delay(h, obs, sigma_shift=4.0)
        assert root.t_ret == pytest.approx(5.0, abs=1e-12)

    def test_light_cone_limit(self):
        h = static_history([2.5, 0.0, 0.0], sigma=1.0)
        obs = np.array([0.0, 0.0, 0.0, 0.0])
        root = ret.pair_delay(h, obs, sigma_shift=0.0)
        assert root.t_ret == pytest.approx(2.5, abs=1e-12)

    def test_moving_source_vs_bisection_oracle(self):
        x0 = np.array([1.5, 0.3, -0.2])
        v = np.array([-0.2, 0.55, 0.15])
        h = uniform_history(x0, v, sigma=0.9)
        t_obs = 0.8
        obs = np.array([t_obs, -0.4, 0.1, 0.0])
        root = ret.pair_delay(h, obs, sigma_shift=0.9)
        oracle = bisect_oracle(obs[1:], lambda t: x0 + v * (t + 40.0), t_obs, 0.9)
        assert root.t_ret == pytest.approx(oracle, abs=1e-12)
        # residual satisfies the defining equation
        src = root.source_event
        dx = obs[1:] - src.r[1:]
        assert abs(root.t_ret**2 - float(dx @ dx) - 0.81) <= \
            ret.root_tolerance(float(dx @ dx), 0.9)


    @pytest.mark.parametrize("beta", [-0.99, 0.99])
    @pytest.mark.parametrize("seed", [0.0, 100.0])
    def test_bracket_survives_a_wrong_source_velocity(self, beta, seed, monkeypatch):
        # a static source that reports a velocity toward (beta < 0) or away
        # from the observer misleads every Newton step; the bracket must
        # still find the static root sqrt(d^2 + sigma^2) / c
        class Misreporting:
            c = 1.0
            t_first = -1e9
            g = 1.0 / np.sqrt(1.0 - beta**2)

            def state_at_time(self, t):
                return wl.WorldlineSample(t=t, s=t, r=np.array([t, 2.0, 0.0, 0.0]),
                                          u=np.array([self.g, self.g * beta, 0, 0]),
                                          a=np.zeros(4))

        stub_sources(monkeypatch)
        root = ret.solve_delays((Misreporting(),), 0, np.zeros(4), 0.5, seed=seed).root(0)
        assert root.t_ret == pytest.approx(np.sqrt(4.25), abs=1e-11)


def line_potential(h, observer_event, sigma):
    """The resolved potential of the one root of h at observer_event."""
    return ret.line_potentials(ret.solve_delays((h,), 0, observer_event, sigma), h.spec.q)[0]


class TestDeltaLineIntegral:
    def test_static_time_component(self):
        d, sigma, q = 2.0, 0.8, 1.7
        h = static_history([d, 0.0, 0.0], sigma=sigma, q=q)
        obs = np.array([0.0, 0.0, 0.0, 0.0])
        pot = line_potential(h, obs, sigma)
        assert pot[0] == pytest.approx(q / np.sqrt(d**2 + sigma**2), rel=1e-12)
        assert np.max(np.abs(pot[1:])) == 0.0

    def test_zero_charge(self):
        h = static_history([2.0, 0.0, 0.0], sigma=0.5, q=0.0)
        pot = line_potential(h, np.array([0.0, 0, 0, 0]), 0.5)
        assert np.array_equal(pot, np.zeros(4))

    def test_point_limit_is_coulomb(self):
        d, q = 3.0, 2.0
        h = static_history([d, 0.0, 0.0], sigma=1.0, q=q)
        pot = line_potential(h, np.array([0.0, 0, 0, 0]), 1e-6 * d)
        assert pot[0] == pytest.approx(q / d, abs=1e-10)

    def test_degenerate_jacobian_guard(self, monkeypatch):
        h = static_history([2.0, 0.0, 0.0], sigma=0.5)
        monkeypatch.setattr(ret, "JAC_TOL", 1e10)
        with pytest.raises(ret.DegenerateJacobian):
            line_potential(h, np.array([0.0, 0, 0, 0]), 0.5)


class TestMaxDelay:
    def test_single_static(self):
        h = static_history([0.0, 0.0, 0.0], sigma=1.0)
        assert ret.max_delay([h], 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_static_pair_dominates(self):
        hs = wl.copy_histories([static_history([0.0, 0.0, 0.0], sigma=4.0),
                                static_history([3.0, 0.0, 0.0], sigma=4.0)])
        assert ret.max_delay(hs, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_three_static_matches_brute_force(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2, 2, size=(3, 3))
        sigmas = rng.uniform(0.3, 1.4, size=3)
        hs = wl.copy_histories([static_history(xs[k], sigma=float(sigmas[k])) for k in range(3)])
        roots = []
        for i in range(3):
            roots.append(ret.self_delay(hs[i], 0.0).t_ret)
            obs = hs[i].state_at_time(0.0).r
            for j in range(3):
                if j == i:
                    continue
                for shift in (sigmas[i], sigmas[j]):
                    roots.append(ret.pair_delay(hs[j], obs, float(shift)).t_ret)
        assert ret.max_delay(hs, 0.0) == pytest.approx(max(roots), abs=1e-13)


sigmas = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(sigmas, sigmas)
def test_delay_monotone_in_sigma(s1, s2):
    if abs(s1 - s2) < 1e-6:
        return
    lo, hi = min(s1, s2), max(s1, s2)
    h = uniform_history([0.5, -0.3, 0.2], [0.25, 0.3, -0.1], sigma=1.0)
    r_lo = ret.self_delay(h, 0.0, sigma=lo)
    r_hi = ret.self_delay(h, 0.0, sigma=hi)
    assert r_hi.t_ret > r_lo.t_ret


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.8, max_value=0.8), sigmas)
def test_dual_seed_uniqueness(beta, sigma):
    h = uniform_history([1.0, 0.0, 0.0], [beta, 0.0, 0.0], sigma=sigma)
    now = wl.gather((h,), 0, [0.0])

    def self_root(seed):
        return ret.solve_delays((h,), 0, now.r, sigma, obs=0, now=now, seed=seed).t_ret[0]

    static_est = self_root(None)
    from_zero = self_root(0.0)
    from_ten = self_root(10.0 * static_est)
    assert abs(from_zero - from_ten) < 1e-11 * (1.0 + static_est)
    assert abs(from_zero - static_est) < 1e-11 * (1.0 + static_est)


# -- warm batches: first iterates from the batch before ----------------------------


def curved_pair_histories():
    """Two charges of distinct radii on curved worldlines, in one store."""
    def orbit(x0, amp, om):
        return (lambda t: np.array([x0 + amp * np.sin(om * t), 0.3 * amp * np.cos(om * t), 0.0]),
                lambda t: amp * om * np.array([np.cos(om * t), -0.3 * np.sin(om * t), 0.0]),
                lambda t: -amp * om * om * np.array([np.sin(om * t), 0.3 * np.cos(om * t), 0.0]))

    t_nodes = np.linspace(-6.0, 2.0, 321)
    return wl.copy_histories([
        wl.history_from_kinematics(wl.ParticleSpec(1.0, q, sigma, label), t_nodes,
                                   *orbit(x0, amp, om))
        for label, q, sigma, x0, amp, om in (("left", 0.5, 0.8, -1.5, 0.2, 0.9),
                                             ("right", -0.4, 0.7, 1.5, 0.3, 1.2))])


def present(hs, t):
    return wl.gather(hs, np.arange(len(hs)), np.full(len(hs), t))


def test_first_iterates_fall_back_to_the_static_guess_row_by_row(monkeypatch):
    hs = curved_pair_histories()
    plan = ret._root_plan(tuple(h.spec for h in hs), (0, 1), SelfForceMode.ASYMPTOTIC)
    now_a, now_b = present(hs, 1.0), present(hs, 1.01)
    prev = ret._plan_roots(hs, plan, now_a.r, now_a)
    events, t = now_b.r[plan.slot], now_b.t[plan.src]
    cold = ret._plan_roots(hs, plan, now_b.r, now_b)
    # each row starts off the same row of prev, 0.01 earlier
    assert np.all(np.abs(ret._first_iterates(prev, events, t) - cold.t_ret) < 1e-4)
    # a batch handed prev as its seed makes those first iterates itself
    warm = ret._plan_roots(hs, plan, now_b.r, now_b, prev)
    seeded = ret.solve_delays(hs, plan.src, events, plan.sigma, obs=plan.obs,
                              now=ret.gather(hs, plan.src, t),
                              seed=ret._first_iterates(prev, events, t))
    assert warm.t_ret.tobytes() == seeded.t_ret.tobytes()

    # a model step that is negative, NaN or infinite falls back
    def model_step(*args):
        den, step = real_model(*args)
        step[:3] = [-0.5, np.nan, np.inf]
        return den, step

    real_model = ret._model_step
    with monkeypatch.context() as m:
        m.setattr(ret, "_model_step", model_step)
        seeds = ret._first_iterates(prev, events, t)
    assert np.isnan(seeds).tolist() == [True] * 3 + [False] * (len(seeds) - 3)

    # each NaN row starts from the static guess, every other from its seed,
    # and every root is the cold batch's to its tolerance
    first = []

    def read(histories, src, ts, kept=None):
        first.append(np.array(ts))
        return real_read(histories, src, ts, kept)

    real_read = ret._read
    monkeypatch.setattr(ret, "_read", read)
    roots = ret.solve_delays(hs, plan.src, events, plan.sigma, obs=plan.obs,
                             now=ret.gather(hs, plan.src, t), seed=seeds)
    d = events[:, 1:] - now_b.r[plan.src, 1:]
    static = np.sqrt(ret._dot(d, d) + plan.sigma * plan.sigma) / hs[0].c
    assert np.array_equal(first[0], t - np.where(np.isnan(seeds), static, seeds))
    assert np.all(np.abs(roots.t_ret - cold.t_ret) < 1e-10)


def test_warm_batches_fail_as_cold_ones(monkeypatch):
    hs = curved_pair_histories()
    plan = ret._root_plan(tuple(h.spec for h in hs), (0, 1), SelfForceMode.EXACT)
    now_a, now_b = present(hs, 0.5), present(hs, 1.0)
    prev = ret._plan_roots(hs, plan, now_a.r, now_a)

    def failure(kind, call, prev):
        with pytest.raises(kind) as err:
            call(ret._plan_roots(hs, plan, now_b.r, now_b, prev))
        return str(err.value), err.value.particle

    def potentials(roots):
        return ret.line_potentials(roots, plan.q)

    monkeypatch.setattr(ret, "JAC_TOL", 1e10)  # every root grazes
    warm = failure(ret.DegenerateJacobian, potentials, prev)
    assert warm == failure(ret.DegenerateJacobian, potentials, None)
    assert warm[0].startswith("|Rt.u| = ") and "(observer 'left', source 'left'" in warm[0]
    monkeypatch.setattr(ret, "MAX_ITER", 1)  # no first iterate lands within tolerance
    warm, cold = (failure(ret.NoConvergence, len, p) for p in (prev, None))
    pattern = (r"delay iteration exhausted 1 evaluations with residual \S+ > \S+ "
               r"\(observer 'left', source 'left', sigma=0\.8, t_obs=1\.0\)")
    assert re.fullmatch(pattern, warm[0]) and re.fullmatch(pattern, cold[0])
    assert warm[1] == cold[1] == "left"


def _ring6_specs():
    return tuple(wl.ParticleSpec(1.0 + 0.15 * k, (0.35 + 0.03 * k) * (-1) ** k,
                                 0.5 + 0.06 * k, f"p{k}") for k in range(6))


@pytest.mark.parametrize("mode", [SelfForceMode.EXACT, SelfForceMode.ASYMPTOTIC, None])
@pytest.mark.parametrize("specs, observers", [
    (_ring6_specs(), tuple(range(6))),
    ((wl.ParticleSpec(1.0, 0.5, 0.5, "pulse"),), (0,)),
    ((wl.ParticleSpec(1.0, 0.5, 0.8, "a"), wl.ParticleSpec(1.2, -0.4, 0.6, "b"),
      wl.ParticleSpec(0.9, 0.0, 0.7, "n")), (0, 1, 2)),
    ((wl.ParticleSpec(1.0, 0.5, 0.8, "a"), wl.ParticleSpec(1.2, -0.4, 0.6, "b"),
      wl.ParticleSpec(0.9, 0.0, 0.7, "n")), (2, 0)),
], ids=["ring6", "pulse", "pair_and_neutral", "pair_and_neutral_subset"])
def test_root_plan_caches_its_per_system_constants(specs, observers, mode):
    # the constants every evaluation of a plan reads equal what the specs
    # give, and the plan's arrays are shared, so read-only
    plan = ret._root_plan(specs, observers, mode)
    assert np.array_equal(plan.obs, np.array(observers)[plan.slot])
    assert np.array_equal(plan.sign, np.where(plan.src == plan.obs, -1.0, 1.0))
    assert np.array_equal(plan.q, [specs[j].q for j in plan.src])
    assert np.array_equal(plan.bins, [[4 * s + mu for mu in range(4)] for s in plan.slot])
    assert np.array_equal(plan.obs_q, [specs[i].q for i in observers])
    assert np.array_equal(plan.obs_m0, [specs[i].m0 for i in observers])
    # in asymptotic mode each charged observer takes g at its self root,
    # with -m_em c and q^2 / 3c at the plan's light speed
    asymptotic = mode is SelfForceMode.ASYMPTOTIC
    assert plan.g_slot.tolist() == [s for s, i in enumerate(observers)
                                    if asymptotic and specs[i].q]
    for c in (1.0, 2.0):
        at_c = ret._root_plan(specs, observers, mode, c)
        assert np.array_equal(at_c.g_row, plan.g_row)
        for s, r, em, rad in zip(at_c.g_slot, at_c.g_row, at_c.g_em, at_c.g_rad):
            spec = specs[observers[s]]
            assert plan.src[r] == plan.obs[r] == observers[s] and plan.sigma[r] == spec.sigma
            assert em == -(spec.q * spec.q / (c * c * spec.sigma)) * c
            assert rad == spec.q * spec.q / (3.0 * c)
    # in asymptotic mode a lone charge's self cone carries no kernel weight
    assert any(k != 0.0 for k in plan.k) == (
        mode is SelfForceMode.EXACT or mode is SelfForceMode.ASYMPTOTIC and len(specs) > 1)
    for name, x in zip(plan._fields, plan):
        assert isinstance(x, np.ndarray) and not x.flags.writeable, name
    # _per_slot adds each slot's terms to zero in root order, one row (and
    # for (M, 4, 4) terms one entry) at a time
    rng = np.random.default_rng(len(plan.src))
    n = len(observers)
    for shape in [(4,), (4, 4)]:
        terms = rng.normal(size=(len(plan.src), *shape))
        want = np.zeros((n, *shape))
        for s, term in zip(plan.slot, terms):
            want[s] += term
        assert ret._per_slot(plan, terms, n).tobytes() == want.tobytes()
