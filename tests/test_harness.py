import io
import json
import math
import os
import re
from contextlib import redirect_stderr
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
import yaml

from retnbody.dynamics import PREHISTORY_NODES, copy_state, run, seed
from retnbody import dynamics, harness
from retnbody import fields as fl
from retnbody.harness import (
    CONFIG_SCHEMA,
    CheckFailed,
    ConfigError,
    MissingArtifact,
    OracleConfig,
    WidthTooSmall,
    action_oracle,
    build_state,
    cmd_action_oracle,
    cmd_check_pb,
    config_hash,
    emit_plots_data,
    extremality_ratio,
    load_config,
    load_prehistory_csv,
    main,
    parse_config,
)
from retnbody import retardation
from retnbody import worldline
from retnbody.canonical import FrozenHistoryContext, state_from_histories
from retnbody.minkowski import lower
from retnbody.retardation import max_delay
from retnbody.worldline import (
    ConstraintViolation,
    ParticleSpec,
    copy_histories,
    history_from_kinematics,
    inertial_history,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _cfg_mapping(**overrides):
    base = {
        "particles": [
            {"label": "a", "m0": 1.0, "q": 0.5, "sigma": 0.8,
             "position": [-1.5, 0.0, 0.0], "velocity": [0.0, 0.0, 0.0]},
            {"label": "b", "m0": 1.5, "q": -0.4, "sigma": 0.7,
             "position": [1.5, 0.3, 0.0], "velocity": [0.0, 0.0, 0.0]},
        ],
        "external": {"variant": "none"},
        "mode": "exact",
        "c": 1.0,
        "dt": 0.02,
        "t0": 0.0,
        "t_end": 0.2,
        "output_dir": "out",
    }
    base.update(overrides)
    return base


def _write_cfg(tmp_path, mapping, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def _dump(cfg):
    """The config as the YAML text config_hash hashes, output_dir kept."""
    return yaml.safe_dump(cfg.to_mapping(), sort_keys=True, default_flow_style=None)


def _cli(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().strip()


# -- configuration layer -------------------------------------------------------


def test_config_round_trip_idempotent():
    for name in os.listdir(CONFIG_DIR):
        if not name.endswith(".yaml"):
            continue
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        again = parse_config(yaml.safe_load(_dump(cfg)))
        assert again == cfg
        assert _dump(again) == _dump(cfg)


def test_config_unknown_keys_rejected(tmp_path):
    for mapping in (
        _cfg_mapping(bogus=1),
        _cfg_mapping(tolerances={"constraint_hard": 1e-6, "extra": 2.0}),
        _cfg_mapping(parallel=False),
    ):
        with pytest.raises(ConfigError):
            parse_config(mapping)
    bad = _cfg_mapping()
    bad["particles"][0]["spin"] = 0.5
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_config_physical_validation():
    bad = _cfg_mapping()
    bad["particles"][0]["sigma"] = -0.5
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(_cfg_mapping(dt=0.0))
    with pytest.raises(ConfigError):
        parse_config(_cfg_mapping(t_end=-1.0))
    with pytest.raises(ConfigError):
        parse_config(_cfg_mapping(c=float("inf")))
    both = _cfg_mapping()
    both["particles"][0]["prehistory"] = "x.csv"
    with pytest.raises(ConfigError):
        parse_config(both)
    dup = _cfg_mapping()
    dup["particles"][1]["label"] = "a"
    with pytest.raises(ConfigError):
        parse_config(dup)


@pytest.mark.parametrize("dt, t_end", [(0.5, 0.2), (0.3, 1.0)])
def test_cli_rejects_a_dt_that_does_not_divide_the_run(tmp_path, dt, t_end):
    # 0.5 is more than the whole run; 0.3 would stop it at 0.9, not 1.0
    with open(os.path.join(CONFIG_DIR, "free_particle.yaml")) as fh:
        mapping = yaml.safe_load(fh)
    mapping.update(dt=dt, t_end=t_end, output_dir=str(tmp_path / "never"))
    rc, err = _cli(["run", _write_cfg(tmp_path, mapping)])
    assert rc == 2
    assert json.loads(err)["category"] == "validation"
    assert not os.path.exists(str(tmp_path / "never"))


@pytest.mark.parametrize("steps, dt", [(60, 0.005), (10, 0.02), (3, 0.1)])
def test_config_accepts_a_whole_number_of_steps(steps, dt):
    # the step count of these runs is a whole number only up to rounding
    cfg = parse_config(_cfg_mapping(dt=dt, t0=0.1, t_end=0.1 + steps * dt))
    assert round((cfg.t_end - cfg.t0) / cfg.dt) == steps


def test_config_defaults_and_hash():
    cfg = parse_config(_cfg_mapping())
    assert cfg.constraint_hard == 1e-6
    assert cfg.constraint_soft == 1e-9
    assert cfg.seed == 0
    assert config_hash(cfg) == config_hash(parse_config(_cfg_mapping()))
    other = parse_config(_cfg_mapping(dt=0.01))
    assert config_hash(other) != config_hash(cfg)
    # where the artifacts go is not part of what made them
    assert config_hash(parse_config(_cfg_mapping(output_dir="elsewhere"))) == config_hash(cfg)


def _bench_shaped_mappings():
    """Configs shaped like the benchmark's: a pair restarted from
    prehistory tables and a ring of six with full-precision positions and
    velocities."""
    rng = np.random.default_rng(0)
    ring = [{"label": f"p{k}", "m0": 1.0 + 0.15 * k, "q": (-1) ** k * (0.35 + 0.03 * k),
             "sigma": 0.5 + 0.06 * k, "position": rng.normal(0.0, 3.0, 3).tolist(),
             "velocity": rng.normal(0.0, 0.02, 3).tolist()} for k in range(6)]
    pair = [{"label": label, "m0": m0, "q": q, "sigma": sigma,
             "prehistory": f"prehistory_{label}.csv"}
            for label, m0, q, sigma in (("left", 1.0, 0.5, 0.8), ("right", 1.5, -0.4, 0.7))]
    return [_cfg_mapping(particles=ring, t_end=0.2),
            _cfg_mapping(particles=pair, dt=0.005, t_end=0.3)]


def test_config_yaml_classes_read_and_write_as_the_pure_ones():
    # load_config and config_hash use libyaml's classes when PyYAML has
    # them: the documents read and the text hashed must not change
    shipped = [os.path.join(CONFIG_DIR, name) for name in sorted(os.listdir(CONFIG_DIR))
               if name.endswith(".yaml")]
    assert len(shipped) >= 6
    mappings = _bench_shaped_mappings()
    for path in shipped:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        mapping = yaml.load(text, Loader=harness._YAML_LOADER)
        assert mapping == yaml.load(text, Loader=yaml.SafeLoader)
        mappings.append(mapping)
    for cfg in map(parse_config, mappings):
        assert yaml.dump(cfg.to_mapping(), Dumper=harness._YAML_DUMPER, sort_keys=True,
                         default_flow_style=None) == _dump(cfg)


def test_cli_unparsable_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("particles: [{label: a, m0: 1.0\nmode: exact\n")
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_config(str(path))
    rc, err = _cli(["run", str(path)])
    payload = json.loads(err)
    assert (rc, payload["category"], payload["error"]) == (2, "validation", "ConfigError")


def test_cli_artifacts_do_not_depend_on_the_output_dir(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "check_pb.yaml")
    for name in ("one", "two"):
        assert _cli(["check-pb", cfg, "--output-dir", str(tmp_path / name)]) == (0, "")
    one, two = ((tmp_path / name / "pb_residuals.csv").read_bytes() for name in ("one", "two"))
    assert one.startswith(b"# config-hash: ") and one == two


def test_constraint_soft_sets_drift_threshold():
    cfg = parse_config(_cfg_mapping(
        tolerances={"constraint_hard": 1e-5, "constraint_soft": 1e-3}))
    st = build_state(cfg)
    assert [h.constraint_tol for h in st.histories] == [1e-3, 1e-3]
    assert [h.hard_tol for h in st.histories] == [1e-5, 1e-5]


def test_oracle_config_validation():
    with pytest.raises(ConfigError):
        OracleConfig(width=0.0)
    with pytest.raises(ConfigError):
        OracleConfig(width=0.1, nodes=16)


def test_an_oracle_fd_step_is_an_unknown_key(tmp_path):
    # the oracle's gradient is exact, so a step for it is no longer a key
    mapping = _cfg_mapping(oracle={"width": 0.08, "nodes": 48, "fd_step": 1e-6})
    with pytest.raises(ConfigError, match="schema violation"):
        parse_config(mapping)
    rc, err = _cli(["action-oracle", _write_cfg(tmp_path, mapping),
                    "--output-dir", str(tmp_path / "ao")])
    assert rc == 2 and json.loads(err)["category"] == "validation"
    assert not os.path.exists(tmp_path / "ao")


def _schema_keys(schema, prefix=""):
    """The documented keys of a config schema: each leaf property, and
    each list of objects, whose items' keys follow as "list[].key"."""
    for name, sub in schema["properties"].items():
        key = prefix + name
        if "properties" in sub:
            yield from _schema_keys(sub, key + ".")
        elif "properties" in sub.get("items", {}):
            yield key
            yield from _schema_keys(sub["items"], key + "[].")
        else:
            yield key


def test_the_config_readme_table_lists_exactly_the_schema_keys():
    with open(os.path.join(CONFIG_DIR, "README.md"), encoding="utf-8") as fh:
        cells = [ln.split("|")[1] for ln in fh if ln.startswith("| `")]
    documented = [key for cell in cells for key in re.findall(r"`([^`]+)`", cell)]
    keys = list(_schema_keys(CONFIG_SCHEMA))
    assert "oracle.nodes" in keys and "particles[].sigma" in keys
    assert sorted(documented) == sorted(keys)


def test_config_validator_is_compiled_once(monkeypatch):
    validator = type(harness._CONFIG_VALIDATOR)
    validator.check_schema(CONFIG_SCHEMA)
    # two violations: the reported one is jsonschema's best match, the
    # message jsonschema.validate raises
    two = _cfg_mapping(dt=-1.0, bogus=1)
    with pytest.raises(jsonschema.ValidationError) as best:
        jsonschema.validate(two, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as err:
        parse_config(two)
    assert str(err.value) == f"schema violation: {best.value.message}"

    def refuse(*args, **kwargs):
        raise AssertionError("metaschema check on the load path")

    monkeypatch.setattr(validator, "check_schema", refuse)
    with pytest.raises(AssertionError, match="metaschema check"):
        jsonschema.validate(_cfg_mapping(), CONFIG_SCHEMA)
    cfg = load_config(os.path.join(CONFIG_DIR, "action_oracle.yaml"))
    assert cfg.oracle.nodes == 48
    with pytest.raises(ConfigError, match="schema violation"):
        parse_config(two)


# -- discretized-action oracle ---------------------------------------------------


def _wiggle_history(spec, x0, amp, om, ph, t_end=1.2, span=9.0):
    def x(t):
        return np.array([x0[0] + amp * math.sin(om * t + ph),
                         x0[1] + 0.1 * amp * math.cos(0.7 * om * t), x0[2]])

    def v(t):
        return np.array([amp * om * math.cos(om * t + ph),
                         -0.07 * amp * om * math.sin(0.7 * om * t), 0.0])

    def a(t):
        return np.array([-amp * om * om * math.sin(om * t + ph),
                         -0.049 * amp * om * om * math.cos(0.7 * om * t),
                         0.0])

    nodes = np.linspace(-span, t_end, 2400)
    return history_from_kinematics(spec, nodes, x, v, a)


def _wiggle_pair():
    specs = [ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.4, -0.4, 0.7, "b")]
    return copy_histories([_wiggle_history(specs[0], [-1.4, 0.2, 0], 0.25, 0.9, 0.3),
                           _wiggle_history(specs[1], [1.4, -0.1, 0], 0.2, 0.7, 1.1)])


def test_mass_term_gradient_vanishes_on_inertial_lines():
    specs = [ParticleSpec(1.0, 0.0, 0.8, "n1"), ParticleSpec(2.0, 0.0, 0.6, "n2")]
    hists = copy_histories([inertial_history(specs[0], [-2, 0, 0], [0.1, 0, 0], -8.0, 1.0, 64),
                            inertial_history(specs[1], [2, 0, 0], [-0.05, 0.02, 0], -8.0, 1.0, 64)])
    rep = action_oracle(hists, OracleConfig(width=0.1, nodes=40), 0.2, 0.9)
    for g in rep.gradients:
        assert float(np.max(np.abs(g))) < 1e-8


def test_static_pair_gradient_matches_closed_form_force():
    d, q, sg = 3.0, 0.4, 0.8
    specs = [ParticleSpec(2.0, q, sg, "a"), ParticleSpec(2.0, -q, sg, "b")]
    hists = copy_histories([inertial_history(specs[0], [-d / 2, 0, 0], [0, 0, 0], -8.0, 1.0, 64),
                            inertial_history(specs[1], [d / 2, 0, 0], [0, 0, 0], -8.0, 1.0, 64)])
    nodes = 48
    rep = action_oracle(hists, OracleConfig(width=0.08, nodes=nodes), 0.2, 0.9)
    assert rep.rel_mismatch < 0.01
    # held static, so the residual is pure force; equal radii make the two
    # delay roots coincide and double the single-root closed form
    f_closed = 2.0 * q * q * d / (d * d + sg * sg) ** 1.5
    dt_node = (0.9 - 0.2) / (nodes - 1)
    dens = np.abs(rep.expected[0][:, 1]) / dt_node
    assert np.max(np.abs(dens - f_closed)) < 1e-9 * f_closed
    # lowered x component: the pull of "b" on "a" points toward +x, which
    # makes the covariant gradient negative there
    assert np.all(rep.gradients[0][:, 1] < 0.0)
    assert np.all(rep.gradients[1][:, 1] > 0.0)


def test_oracle_matches_force_on_random_smooth_worldlines():
    hists = _wiggle_pair()
    rep = action_oracle(hists, OracleConfig(width=0.08, nodes=80), 0.25, 1.1)
    assert rep.rel_mismatch < 0.03
    fine = action_oracle(hists, OracleConfig(width=0.04, nodes=160),
                         0.25, 1.1)
    assert fine.rel_mismatch < rep.rel_mismatch


def test_width_too_small_raises():
    hists = _wiggle_pair()
    with pytest.raises(WidthTooSmall):
        action_oracle(hists, OracleConfig(width=1e-4, nodes=40), 0.25, 1.1)


def test_oracle_window_needs_history_depth():
    hists = _wiggle_pair()
    with pytest.raises(ValueError):
        action_oracle(hists, OracleConfig(width=0.08, nodes=40), -8.5, 1.0)
    with pytest.raises(ValueError):
        action_oracle(hists, OracleConfig(width=0.08, nodes=40), 0.9, 0.2)



def _dli_at_point(src, r_obs, dr, sigma, q, width, c):
    """One observer point's smoothed line integral A and its derivative
    J_mu = (dA_nu/dr^mu) dr^nu along dr, the per-point form the block
    evaluation replaces."""
    d = r_obs[None, :] - src.r
    f = d[:, 0] ** 2 - d[:, 1] ** 2 - d[:, 2] ** 2 - d[:, 3] ** 2 \
        - sigma * sigma
    causal = src.t < r_obs[0] / c
    inside = causal & (np.abs(f) < 3.0 * width)
    if int(np.count_nonzero(inside)) < harness.SUPPORT_MIN:
        raise WidthTooSmall(
            f"only {int(np.count_nonzero(inside))} causal source samples "
            f"inside the Gaussian window (need {harness.SUPPORT_MIN}); widen w or "
            f"refine the source sampling")
    g = np.exp(-0.5 * (f / width) ** 2) / (width * math.sqrt(2.0 * math.pi))
    g = g * causal * src.w_quad
    # d/dr^mu of g(f): -g f / w^2 times df/dr^mu = 2 lower(r - r_s)_mu
    dg = (-g * f / width ** 2)[:, None] * 2.0 * lower(d)
    return 2.0 * q * (g @ src.u_cov), 2.0 * q * ((src.u_cov @ dr) @ dg)


def test_smoothed_line_integral_blocks_match_points():
    hists = _wiggle_pair()
    m = harness.SOURCE_FACTOR * 48
    src = harness._freeze_source(hists[1], 1.1, m)
    rows = max(1, harness._BLOCK_PAIRS // m)
    rng = np.random.default_rng(5)
    for count in (1, rows, 2 * rows + 3):
        obs = hists[0].states_at(np.linspace(0.25, 1.1, count)).r
        obs[:, 1:] += rng.normal(scale=0.01, size=(count, 3))
        dr = np.column_stack((np.full(count, 0.02), rng.normal(scale=0.005, size=(count, 3))))
        A, J = harness._smoothed_dli(src, obs, dr, 0.8, -0.4, 0.08, 1.0)
        assert A.shape == J.shape == (count, 4)
        for p, d, a, j in zip(obs, dr, A, J):
            want_a, want_j = _dli_at_point(src, p, d, 0.8, -0.4, 0.08, 1.0)
            assert np.linalg.norm(a - want_a) <= 1e-14 * np.linalg.norm(want_a)
            # the block form subtracts two sums of size |r| sum |k|
            # (measured: 3.9e-14)
            assert np.linalg.norm(j - want_j) <= 1e-13 * np.linalg.norm(want_j)

    # an observer before the first source sample sees no causal sample;
    # it sits in the third block and fails with the per-point message
    obs = hists[0].states_at(np.linspace(0.25, 1.1, 2 * rows + 3)).r
    obs[-1, 0] = src.t[0] - 1.0
    dr = np.zeros_like(obs)
    with pytest.raises(WidthTooSmall) as want:
        _dli_at_point(src, obs[-1], dr[-1], 0.8, -0.4, 0.08, 1.0)
    with pytest.raises(WidthTooSmall) as got:
        harness._smoothed_dli(src, obs, dr, 0.8, -0.4, 0.08, 1.0)
    assert str(got.value) == str(want.value)


def _fd_segment_geometry(nodes_r):
    """Segment vectors, proper lengths and midpoints of the node paths
    nodes_r (K, ..., 4), nodes along the first axis."""
    dr = nodes_r[1:] - nodes_r[:-1]
    sq = dr[..., 0] ** 2 - dr[..., 1] ** 2 - dr[..., 2] ** 2 - dr[..., 3] ** 2
    if np.any(sq <= 0.0):
        raise ValueError("worldline segments must be timelike")
    return dr, np.sqrt(sq), 0.5 * (nodes_r[1:] + nodes_r[:-1])


def _fd_a_eff(sources, specs, external, i, r_obs, width, c):
    """Smoothed A_eff of particle i with its cones listed by hand:
    external + 2x self + both shell cones of every companion."""
    def dli(src, sigma, q):
        return harness._smoothed_dli(src, r_obs, np.zeros_like(r_obs), sigma, q, width, c)[0]

    A = external.potential(r_obs)
    A += 2.0 * dli(sources[i], specs[i].sigma, specs[i].q)
    for j, src in enumerate(sources):
        if j == i:
            continue
        A += dli(src, specs[i].sigma, specs[j].q)
        A += dli(src, specs[j].sigma, specs[j].q)
    return A


def fd_node_gradient(nodes_r, i, sources, specs, external, width, c,
                     fd_step=1e-6):
    """Central-FD gradient of the discretized action at interior nodes,
    the reference for the closed form.

    Only segments k-1 and k move with node k, so each perturbed action
    is the local action of those two segments: their summed proper
    lengths, then each segment's A.dr in segment order. The midpoints of
    all perturbed segments (2 segments x 2 signs x 4 axes per interior
    node) are evaluated as one block.
    """
    n = len(nodes_r) - 2
    h = fd_step * (1.0 + np.abs(nodes_r[1:-1]))
    # node k moved by +h and -h along each axis mu: (n, mu, sign, 4)
    moved = np.repeat(nodes_r[1:-1], 8, axis=0).reshape(n, 4, 2, 4)
    for mu in range(4):
        moved[:, mu, 0, mu] += h[:, mu]
        moved[:, mu, 1, mu] -= h[:, mu]
    shape = moved.shape
    paths = np.stack((np.broadcast_to(nodes_r[:-2, None, None], shape), moved,
                      np.broadcast_to(nodes_r[2:, None, None], shape)))
    dr, L, mid = _fd_segment_geometry(paths)
    A = _fd_a_eff(sources, specs, external, i, mid.reshape(-1, 4),
                  width, c).reshape(dr.shape)
    S = specs[i].m0 * c * (L[0] + L[1])
    for a, d in zip(A, dr):
        S += (specs[i].q / c) * np.einsum("...m,...m->...", a, d)
    return (S[..., 0] - S[..., 1]) / (2.0 * h)


@pytest.fixture(scope="module")
def oracle_trajectory():
    """The shipped action-oracle config's trajectories, its oracle config
    and its observer window."""
    cfg = load_config(os.path.join(CONFIG_DIR, "action_oracle.yaml"))
    st = run(build_state(cfg, CONFIG_DIR), cfg.t_end)
    return st.histories, cfg.oracle, (0.06, st.t_now)


@pytest.mark.parametrize("case", ["trajectory", "bumped", "uniform_field", "wiggle_pair"])
def test_the_closed_form_gradient_matches_finite_differences(oracle_trajectory, case):
    hists, cfg, (t_lo, t_hi) = oracle_trajectory
    external = harness.ExternalFieldModel.none()
    if case == "uniform_field":
        external = harness.ExternalFieldModel.uniform(E=(0.05, -0.02, 0.01),
                                                      B=(0.0, 0.03, 0.04))
    if case == "wiggle_pair":
        hists, cfg, (t_lo, t_hi) = _wiggle_pair(), OracleConfig(width=0.08, nodes=80), (0.25, 1.1)
    ts = np.linspace(t_lo, t_hi, cfg.nodes)
    sources = harness._freeze_sources(hists, cfg, t_hi)
    specs = [h.spec for h in hists]
    for i, h in enumerate(hists):
        nodes_r = h.states_at(ts).r
        if case == "bumped":
            bump = np.sin(np.pi * np.linspace(0.0, 1.0, cfg.nodes))
            nodes_r[:, 1:] += harness.BUMP_AMPLITUDE * bump[:, None] * np.array([0.6, 0.8, 0.0])
        g = harness.node_gradient(nodes_r, i, sources, specs, external, cfg.width, hists[0].c)
        want = fd_node_gradient(nodes_r, i, sources, specs, external, cfg.width, hists[0].c)
        assert g.shape == want.shape == (cfg.nodes - 2, 4)
        assert np.max(np.abs(g - want)) <= 1e-6 * np.max(np.abs(want))


def test_the_oracle_refuses_an_external_field_it_cannot_differentiate(oracle_trajectory):
    hists, cfg, (t_lo, t_hi) = oracle_trajectory
    analytic = harness.ExternalFieldModel.analytic(lambda r: np.zeros((4, 4)),
                                                   lambda r: np.zeros(4))
    with pytest.raises(ValueError, match="user-analytic"):
        action_oracle(hists, cfg, 0.3, t_hi, analytic)


def test_action_oracle_reports_the_standalone_extremality(monkeypatch, tmp_path):
    cfg = replace(load_config(os.path.join(CONFIG_DIR, "action_oracle.yaml")),
                  output_dir=str(tmp_path))
    passes = []
    node_gradient = harness.node_gradient

    def counted(*args, **kwargs):
        passes.append(args[1])
        return node_gradient(*args, **kwargs)

    monkeypatch.setattr(harness, "node_gradient", counted)
    out = cmd_action_oracle(cfg, CONFIG_DIR)
    # per particle: the oracle's pass, then extremality_ratio's
    # on-trajectory pass and its perturbed one
    assert sorted(passes) == [0, 0, 0, 1, 1, 1]
    hists, (t_lo, t_hi) = out["state"].histories, out["window"]
    alone = extremality_ratio(hists, cfg.oracle, t_lo, t_hi,
                              rng=np.random.default_rng(cfg.seed))
    assert alone == out["extremality"]
    assert len(passes) == 10


def test_action_oracle_makes_one_force_batch_per_node_time(monkeypatch, tmp_path, total_force):
    cfg = replace(load_config(os.path.join(CONFIG_DIR, "action_oracle.yaml")),
                  output_dir=str(tmp_path))
    calls = []
    total_faraday = harness.total_faraday

    def counted(histories, now, *args, **kwargs):
        calls.append(now.t.copy())
        return total_faraday(histories, now, *args, **kwargs)

    monkeypatch.setattr(harness, "total_faraday", counted)
    out = cmd_action_oracle(cfg, CONFIG_DIR)
    hists = out["state"].histories
    # one all-particle call per interior node time, not one per particle
    assert [t[0] for t in calls] == out["report"].times.tolist()
    assert len(calls) == cfg.oracle.nodes - 2 == 46
    assert all(np.array_equal(t, np.full(len(hists), t[0])) for t in calls)
    # each particle's residual is m0 c a minus the batch's force, which is
    # the single-term oracle (q/c) (self + binary tensors) @ u to rounding
    none, c = harness.ExternalFieldModel.none(), cfg.c
    for t in out["report"].times[::9]:
        got = harness.el_residual_covariant(hists, none, t)
        now = worldline.gather(hists, np.arange(len(hists)), np.full(len(hists), t))
        f, _, bound = total_force(hists, now, none)
        for i, h in enumerate(hists):
            smp = h.state_at_time(t)
            assert np.array_equal(got[i], h.spec.m0 * c * lower(smp.a) - f[i])
            F = fl.self_faraday(h, t).matrix
            for h_j in hists:
                if h_j is not h:
                    F = F + fl.binary_faraday(h_j, smp.r, h.spec.sigma, h_j.spec.sigma).matrix
            assert np.all(np.abs(f[i] - (h.spec.q / c) * (F @ smp.u)) <= bound[i])


def test_extremality_on_dynamics_trajectories():
    specs = [ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.5, -0.4, 0.7, "b")]
    st = seed(specs, [[-1.5, 0, 0], [1.5, 0.3, 0]], [[0, 0, 0], [0, 0, 0]],
              dt=0.02)
    run(st, 1.2)
    rep = extremality_ratio(st.histories, OracleConfig(width=0.08, nodes=48),
                            0.3, st.t_now, rng=np.random.default_rng(3))
    assert rep["ratio"] <= 0.1
    assert rep["perturbed_norm"] > 10.0 * rep["gradient_norm"]


def swap_symmetry_residual(curve_a, curve_b, charges, sigmas,
                           width: float, c: float = 1.0) -> dict:
    """Exchange identity of the pair-summed binary functional of the
    action oracle.

    It uses the full-range double sum (no causal gate), the form whose
    pair-summed exchange identity holds for arbitrary curve pairs: both
    orderings must agree for two arbitrary curves once summed over
    ordered particle pairs, because relabeling swaps the shell radii the
    same way it swaps the charges.
    """

    def pair_term(na, nb, sigma):
        dra, _, ma = harness._segment_geometry(na)
        drb, _, mb = harness._segment_geometry(nb)
        d = mb[None, :, :] - ma[:, None, :]
        f = d[..., 0] ** 2 - d[..., 1] ** 2 - d[..., 2] ** 2 \
            - d[..., 3] ** 2 - sigma * sigma
        g = np.exp(-0.5 * (f / width) ** 2) / (width * math.sqrt(2 * math.pi))
        dots = np.einsum("km,lm->kl", dra * np.array([1.0, -1, -1, -1]), drb)
        return float(np.sum(g * dots))

    n = len(charges)
    lhs = rhs = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pref = 2.0 * charges[i] * charges[j] / c
            lhs += pref * pair_term(curve_a, curve_b, sigmas[j])
            rhs += pref * pair_term(curve_b, curve_a, sigmas[i])
    scale = max(abs(lhs), abs(rhs), 1.0)
    return {"lhs": lhs, "rhs": rhs,
            "residual": abs(lhs - rhs), "relative": abs(lhs - rhs) / scale}


def test_swap_symmetry_identity():
    ts = np.linspace(0.0, 3.0, 50)

    def curve(x0, drift, amp):
        r = np.zeros((len(ts), 4))
        r[:, 0] = ts
        r[:, 1] = x0 + drift * ts + amp * np.sin(1.3 * ts)
        r[:, 2] = 0.08 * np.cos(0.9 * ts)
        return r

    rep = swap_symmetry_residual(curve(-1.0, 0.05, 0.1),
                                 curve(1.2, -0.04, 0.12),
                                 charges=[0.5, -0.4], sigmas=[0.8, 0.6],
                                 width=0.1)
    assert rep["relative"] < 1e-12
    assert abs(rep["lhs"]) > 0.0


# -- CLI ------------------------------------------------------------------------


def test_cli_run_free_particle_linear_trajectory(tmp_path):
    out = str(tmp_path / "free")
    rc, err = _cli(["run", os.path.join(CONFIG_DIR, "free_particle.yaml"),
                    "--output-dir", out])
    assert rc == 0 and err == ""
    path = os.path.join(out, "trajectory_free.csv")
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# config-hash: ")
        header = fh.readline().strip().split(",")
        rows = [list(map(float, ln.split(","))) for ln in fh]
    it, ix = header.index("t"), header.index("r1")
    g = 1.0 / math.sqrt(1.0 - 0.2 ** 2 - 0.1 ** 2)
    for row in rows:
        assert abs(row[ix] - 0.2 * row[it]) < 1e-12
        assert abs(row[header.index("u0")] - g) < 1e-13


def test_cli_run_artifacts_and_summary(tmp_path):
    out = str(tmp_path / "pair")
    rc, _ = _cli(["run", os.path.join(CONFIG_DIR, "run_pair.yaml"),
                  "--output-dir", out, "--plots"])
    assert rc == 0
    for name in ("trajectory_left.csv", "trajectory_right.csv",
                 "diagnostics.csv", "run_summary.csv"):
        p = os.path.join(out, name)
        assert os.path.exists(p)
        with open(p) as fh:
            assert fh.readline().startswith("# config-hash: ")
    assert os.path.exists(os.path.join(out, "plots", "left_projection.csv"))
    assert os.path.exists(os.path.join(out, "plots", "constraint_drift.csv"))


def test_cli_malformed_config_no_output(tmp_path):
    bad = _cfg_mapping(output_dir=str(tmp_path / "never"))
    bad["particles"][0]["sigma"] = -1.0
    rc, err = _cli(["run", _write_cfg(tmp_path, bad)])
    assert rc == 2
    payload = json.loads(err)
    assert payload["category"] == "validation"
    assert not os.path.exists(str(tmp_path / "never"))


def test_cli_unknown_key_and_missing_file(tmp_path):
    rc, err = _cli(["run", _write_cfg(tmp_path, _cfg_mapping(web=True))])
    assert rc == 2 and json.loads(err)["category"] == "validation"
    rc, err = _cli(["run", str(tmp_path / "absent.yaml")])
    assert rc == 2 and json.loads(err)["category"] == "validation"


def test_cli_numerical_failure_exit3(tmp_path):
    cfg = _cfg_mapping(dt=0.5, t_end=5.0,
                       external={"variant": "constant-uniform",
                                 "E": [50.0, 0.0, 0.0], "B": [0.0, 0.0, 0.0]},
                       output_dir=str(tmp_path / "num"))
    cfg["particles"][0].update(q=5.0, m0=0.05)
    rc, err = _cli(["run", _write_cfg(tmp_path, cfg)])
    assert rc == 3
    payload = json.loads(err)
    assert payload["category"] == "numerical"
    assert payload["particle"] == "a" and payload["step"] >= 1


def test_cli_numerical_failure_names_step_time_and_particle(tmp_path, monkeypatch):
    # every potential root of the first step's diagnostics is refused
    monkeypatch.setattr(retardation, "JAC_TOL", 1e10)
    cfg = _cfg_mapping(output_dir=str(tmp_path / "ctx"))
    rc, err = _cli(["run", _write_cfg(tmp_path, cfg)])
    assert rc == 3
    payload = json.loads(err)
    assert payload["error"] == "DegenerateJacobian"
    assert (payload["step"], payload["t"], payload["particle"]) == (1, 0.0, "a")
    assert "observer 'a'" in payload["detail"] and "t_obs=" in payload["detail"]


def test_cli_stage_failure_names_the_particle_of_its_row(tmp_path, monkeypatch):
    # the first force on b is NaN, so b's row of the first stage is not
    # finite: staged refuses it and names b, as a commit would
    def nan_on_b(histories, now, *args, **kwargs):
        f, batch = real(histories, now, *args, **kwargs)
        f[1] = np.nan
        return f, batch

    real = dynamics.total_faraday
    monkeypatch.setattr(dynamics, "total_faraday", nan_on_b)
    rc, err = _cli(["run", _write_cfg(tmp_path, _cfg_mapping(output_dir=str(tmp_path / "nan")))])
    assert rc == 3
    payload = json.loads(err)
    assert (payload["error"], payload["detail"]) == ("ValueError", "s must be a finite number")
    assert (payload["step"], payload["t"], payload["particle"]) == (1, 0.0, "b")


def test_cli_check_pb(tmp_path):
    out = str(tmp_path / "pb")
    rc, err = _cli(["check-pb", os.path.join(CONFIG_DIR, "check_pb.yaml"),
                    "--output-dir", out])
    assert rc == 0 and err == ""
    with open(os.path.join(out, "pb_residuals.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = [ln.strip().split(",") for ln in lines[1:]]
    assert len(rows) >= 8
    assert all(r[-1] == "pass" for r in rows)


@pytest.mark.parametrize("seed_value", [143, 246, 286, 325, 332, 371])
def test_check_pb_jacobi_passes_at_round_off_prone_seeds(tmp_path, seed_value):
    cfg = load_config(os.path.join(CONFIG_DIR, "check_pb.yaml"))
    cmd_check_pb(replace(cfg, seed=seed_value, output_dir=str(tmp_path)))


def test_check_pb_catches_a_gradient_leaking_into_another_particle(tmp_path, monkeypatch):
    real = harness._coordinate_function

    def leaky(block, i, mu):
        f = real(block, i, mu)
        exact = f.gradient

        def grad(x):
            gr, gP = exact(x)
            (gr if block == "r" else gP)[(i + 1) % x.n, mu] += 1e-3
            return gr, gP

        f.gradient = grad
        return f

    monkeypatch.setattr(harness, "_coordinate_function", leaky)
    cfg = load_config(os.path.join(CONFIG_DIR, "check_pb.yaml"))
    with pytest.raises(CheckFailed, match="bracket-layer residuals"):
        cmd_check_pb(replace(cfg, output_dir=str(tmp_path)))


def test_cli_demo_no_interaction_rejects_an_external_field(tmp_path, monkeypatch):
    # the instant-form certificate is defined for the isolated system, so
    # the config is refused before any step is taken
    with open(os.path.join(CONFIG_DIR, "demo_no_interaction.yaml")) as fh:
        mapping = yaml.safe_load(fh)
    mapping.update(external={"variant": "constant-uniform", "E": [0.1, 0.0, 0.0]},
                   output_dir=str(tmp_path / "never"))
    steps = []
    real_step = dynamics.step
    monkeypatch.setattr(dynamics, "step", lambda st: steps.append(st.t_now) or real_step(st))
    rc, err = _cli(["demo-no-interaction", _write_cfg(tmp_path, mapping)])
    assert rc == 2
    payload = json.loads(err)
    assert (payload["category"], payload["error"]) == ("validation", "ConfigError")
    assert "'constant-uniform'" in payload["detail"]
    assert steps == [] and not os.path.exists(str(tmp_path / "never"))


def test_cli_demo_no_interaction(tmp_path):
    out = str(tmp_path / "ni")
    rc, err = _cli(["demo-no-interaction",
                    os.path.join(CONFIG_DIR, "demo_no_interaction.yaml"),
                    "--output-dir", out])
    assert rc == 0 and err == ""
    with open(os.path.join(out, "no_interaction_report.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = [ln.strip().split(",") for ln in lines[1:]]
    assert all(r[-1] == "pass" for r in rows)
    comm = float(next(r[1] for r in rows
                      if r[0] == "certificate_comm_interacting"))
    assert comm > 1e-8


def test_cli_compare_asymptotic_rows(tmp_path):
    out = str(tmp_path / "cmp")
    rc, _ = _cli(["compare-asymptotic",
                  os.path.join(CONFIG_DIR, "compare_asymptotic.yaml"),
                  "--output-dir", out, "--plots"])
    assert rc == 0
    with open(os.path.join(out, "asymptotic_gap.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = [ln.strip().split(",") for ln in lines[1:]]
    assert len(rows) == 3
    gaps = {float(s): float(g) for s, g in rows}
    assert all(v > 0.0 and math.isfinite(v) for v in gaps.values())
    assert gaps[0.5] < gaps[1.0]
    assert os.path.exists(os.path.join(out, "plots", "gap_vs_sigma.csv"))


def test_cli_action_oracle(tmp_path):
    out = str(tmp_path / "ao")
    rc, err = _cli(["action-oracle",
                    os.path.join(CONFIG_DIR, "action_oracle.yaml"),
                    "--output-dir", out])
    assert rc == 0 and err == ""
    assert os.path.exists(os.path.join(out, "action_residuals.csv"))
    with open(os.path.join(out, "action_summary.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    vals = dict(ln.strip().split(",") for ln in lines[1:])
    assert float(vals["extremality_ratio"]) <= 0.1


def test_emit_plots_data_missing(tmp_path):
    with pytest.raises(MissingArtifact):
        emit_plots_data(str(tmp_path / "nowhere"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingArtifact):
        emit_plots_data(str(empty))


def test_emit_plots_row_counts(tmp_path):
    out = str(tmp_path / "run")
    rc, _ = _cli(["run", os.path.join(CONFIG_DIR, "run_pair.yaml"),
                  "--output-dir", out])
    assert rc == 0
    written = emit_plots_data(out)
    src = os.path.join(out, "trajectory_left.csv")
    dst = os.path.join(out, "plots", "left_projection.csv")
    assert dst in written

    def rows(p):
        with open(p) as fh:
            return len([ln for ln in fh if not ln.startswith("#")]) - 1

    assert rows(src) == rows(dst)

    # the drift bundle is the diagnostics' step, t and constraint_err_*
    # columns, cell for cell
    def cells(p):
        with open(p) as fh:
            return [ln.rstrip("\n").split(",") for ln in fh if not ln.startswith("#")]

    diag = cells(os.path.join(out, "diagnostics.csv"))
    keep = [0, 1] + [k for k, name in enumerate(diag[0]) if name.startswith("constraint_err_")]
    assert [diag[0][k] for k in keep] == ["step", "t", "constraint_err_left",
                                          "constraint_err_right"]
    drift = os.path.join(out, "plots", "constraint_drift.csv")
    assert drift in written
    assert cells(drift) == [[row[k] for k in keep] for row in diag]


def test_prehistory_table_round_trip(tmp_path):
    spec = ParticleSpec(1.0, 0.3, 0.8, "tab")
    h = inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48)
    table = tmp_path / "tab.csv"
    h.export_csv(str(table), comment="hand-built prehistory")
    loaded = load_prehistory_csv(str(table), spec, parse_config(_cfg_mapping()))
    # every cell bit for bit: -0.0 and nan bit patterns would show too
    assert np.array_equal(loaded.table.view(np.int64), h.table.view(np.int64))

    cfg = _cfg_mapping(output_dir=str(tmp_path / "mix"))
    cfg["particles"][0] = {"label": "tab", "m0": 1.0, "q": 0.3,
                           "sigma": 0.8, "prehistory": "tab.csv"}
    rc, err = _cli(["run", _write_cfg(tmp_path, cfg)])
    assert rc == 0, err
    assert os.path.exists(str(tmp_path / "mix" / "trajectory_tab.csv"))


def _long_history(spec):
    """A 10^4-node history with no constant column but r3, u3 and a3."""
    t = np.linspace(-0.005 * 9999, 0.0, 10_000)
    return history_from_kinematics(
        spec, t, lambda s: np.array([0.04 * np.sin(0.9 * s + 0.3), 0.03 * np.cos(1.3 * s), 0.0]),
        lambda s: np.array([0.036 * np.cos(0.9 * s + 0.3), -0.039 * np.sin(1.3 * s), 0.0]),
        lambda s: np.array([-0.0324 * np.sin(0.9 * s + 0.3), -0.0507 * np.cos(1.3 * s), 0.0]))


def test_long_prehistory_export_load_export_is_byte_identical(tmp_path):
    spec, cfg = ParticleSpec(1.0, 0.5, 0.8, "left"), parse_config(_cfg_mapping())
    h = _long_history(spec)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    h.export_csv(str(first), comment="c")
    loaded = load_prehistory_csv(str(first), spec, cfg)
    assert np.array_equal(loaded.table.view(np.int64), h.table.view(np.int64))
    loaded.export_csv(str(second), comment="c")
    assert second.read_bytes() == first.read_bytes()


def test_mixed_config_synthesizes_like_an_all_instant_one(tmp_path):
    # two sigma = 0.5 charges at x = -+1.5 receding at 0.5 c; "left" is a table
    specs = [ParticleSpec(1.0, 0.5, 0.5, "left"), ParticleSpec(1.0, 0.5, 0.5, "right")]
    xs, vs = [[-1.5, 0, 0], [1.5, 0, 0]], [[-0.5, 0, 0], [0.5, 0, 0]]
    inertial_history(specs[0], [-0.25, 0, 0], vs[0], -2.5, 0.0, 32).export_csv(
        str(tmp_path / "left.csv"))
    mapping = _cfg_mapping()
    mapping["particles"] = [
        {"label": "left", "m0": 1.0, "q": 0.5, "sigma": 0.5, "prehistory": "left.csv"},
        {"label": "right", "m0": 1.0, "q": 0.5, "sigma": 0.5,
         "position": xs[1], "velocity": vs[1]}]
    st = build_state(parse_config(mapping), str(tmp_path))
    inst = st.histories[1]
    assert len(inst) == PREHISTORY_NODES
    # 1.2 is seed's default coverage_factor
    assert -inst.t_first >= 1.2 * max_delay(st.histories, 0.0)
    assert np.array_equal(inst.table, seed(specs, xs, vs).histories[1].table)
    # a table short of the refined depth (2.04) is a numerical failure
    inertial_history(specs[0], [-0.75, 0, 0], vs[0], -1.5, 0.0, 32).export_csv(
        str(tmp_path / "left.csv"))
    rc, err = _cli(["run", _write_cfg(tmp_path, mapping)])
    assert rc == 3
    assert json.loads(err)["error"] == "InsufficientPrehistory"


def _edited_table_config(tmp_path, row, col, edit, **overrides):
    """Config whose particle "tab" loads a 48-node inertial table with one
    cell edited."""
    spec = ParticleSpec(1.0, 0.3, 0.8, "tab")
    h = inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48)
    table = tmp_path / "tab.csv"
    h.export_csv(str(table))
    rows = table.read_text(encoding="utf-8").splitlines()
    cols = rows[row].split(",")
    cols[col] = edit(cols[col])
    rows[row] = ",".join(cols)
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")

    mapping = _cfg_mapping(**overrides)
    mapping["particles"][0] = {"label": "tab", "m0": 1.0, "q": 0.3,
                               "sigma": 0.8, "prehistory": "tab.csv"}
    return mapping


def _loose_table_config(tmp_path, row=20, **overrides):
    # u0 raised by 5e-6: |u.u - 1| ~ 1e-5, above the default hard tolerance
    return _edited_table_config(tmp_path, row, 6, lambda v: repr(float(v) + 5e-6),
                                tolerances={"constraint_hard": 1e-4}, **overrides)


def test_prehistory_table_loads_under_configured_tolerances(tmp_path):
    st = build_state(parse_config(_loose_table_config(tmp_path)), str(tmp_path))
    assert len(st.histories[0]) == 48
    assert "u-normalization-drift" in st.histories[0].flags


def test_copy_state_keeps_configured_tolerances(tmp_path):
    st = build_state(parse_config(_loose_table_config(tmp_path)), str(tmp_path))
    cp = copy_state(st)
    for h, g in zip(st.histories, cp.histories):
        assert (g.hard_tol, g.constraint_tol) == (1e-4, h.constraint_tol)
        assert g.flags == h.flags and g.flags is not h.flags
        assert np.array_equal(g.table, h.table)


def test_canonical_momenta_check_each_history_hard_tolerance(tmp_path):
    # the last node of "tab" (at t0) is off shell by ~1e-5: inside the
    # configured 1e-4, outside the 1e-6 default
    mapping = _loose_table_config(tmp_path, row=48, output_dir=str(tmp_path / "ni"))
    st = build_state(parse_config(mapping), str(tmp_path))
    ctx = FrozenHistoryContext(st.histories, harness.ExternalFieldModel.none(), 0.0)
    x = state_from_histories(st.histories, 0.0, ctx)
    assert np.all(np.isfinite(x.P))
    st.histories[0].hard_tol = 1e-6
    with pytest.raises(ConstraintViolation, match="exceeds 1.0e-06 in a canonical momentum"):
        state_from_histories(st.histories, 0.0, ctx)
    rc, err = _cli(["demo-no-interaction", _write_cfg(tmp_path, mapping)])
    assert rc == 0, err


def test_prehistory_table_rejects_non_finite_time(tmp_path):
    mapping = _edited_table_config(tmp_path, 1, 0, lambda v: "nan",
                                   output_dir=str(tmp_path / "nan"))
    with pytest.raises(ValueError, match="t must be a finite number"):
        load_prehistory_csv(str(tmp_path / "tab.csv"), ParticleSpec(1.0, 0.3, 0.8, "tab"),
                            parse_config(mapping))
    rc, err = _cli(["run", _write_cfg(tmp_path, mapping)])
    assert rc == 3
    assert json.loads(err)["error"] == "ValueError"


def test_prehistory_table_format_errors(tmp_path):
    spec, cfg = ParticleSpec(1.0, 0.3, 0.8, "tab"), parse_config(_cfg_mapping())
    table = str(tmp_path / "tab.csv")
    for row, edit, message in ((0, lambda v: "time", "has header"),
                               (5, lambda v: v + ",0.0", "bad row width")):
        _edited_table_config(tmp_path, row, 0, edit)
        with pytest.raises(ConfigError, match=message):
            load_prehistory_csv(table, spec, cfg)
    (tmp_path / "tab.csv").write_text("# comment only\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="is empty"):
        load_prehistory_csv(table, spec, cfg)



def test_cli_prehistory_table_non_numeric_cell(tmp_path):
    for row, cell in ((5, "abc"), (31, "")):
        mapping = _edited_table_config(tmp_path, row, 3, lambda v: cell,
                                       output_dir=str(tmp_path / "bad"))
        rc, err = _cli(["run", _write_cfg(tmp_path, mapping)])
        assert rc == 2
        payload = json.loads(err)
        assert payload["category"] == "validation"
        assert payload["error"] == "ConfigError"
        assert str(tmp_path / "tab.csv") in payload["detail"]
        assert f"data row {row} has a non-numeric cell" in payload["detail"]


# cells float() reads but numpy's C parser does not: "1_0" (an underscore
# digit separator) and Arabic-Indic digits; both now name their row
@pytest.mark.parametrize("cell", ["abc", "", "1_0", "\u0661\u0662", "1.0#2", "0x1p3"])
def test_prehistory_table_names_the_first_non_numeric_cell(tmp_path, cell):
    spec, cfg = ParticleSpec(1.0, 0.3, 0.8, "tab"), parse_config(_cfg_mapping())
    h = inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48)
    table = tmp_path / "tab.csv"
    h.export_csv(str(table), comment="hand-built")
    lines = table.read_text(encoding="utf-8").splitlines()
    for i, col in ((1 + 30, 5), (1 + 17, 3)):  # data rows 30 and 17
        cells = lines[i].split(",")
        cells[col] = cell
        lines[i] = ",".join(cells)
    # comment and blank lines are not data rows
    lines = ["# one", "", *lines[:10], "", "   ", "# two", *lines[10:]]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_prehistory_csv(str(table), spec, cfg)
    assert str(info.value) == (f"prehistory table {table}: data row 17 has a "
                               f"non-numeric cell {cell!r}")


def test_prehistory_table_cells_read_as_float_reads_them(tmp_path):
    spec, cfg = ParticleSpec(1.0, 0.3, 0.8, "tab"), parse_config(_cfg_mapping())
    h = inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48)
    table = tmp_path / "tab.csv"
    h.export_csv(str(table))
    lines = table.read_text(encoding="utf-8").splitlines()
    spelled = {3: lambda v: f"  {v}\t", 4: lambda v: "+" + v if v[0] != "-" else v,
               5: lambda v: v.upper() if "e" in v else v + "E0", 12: lambda v: v + "0"}
    for i in range(1, len(lines), 2):
        cells = lines[i].split(",")
        for col, spell in spelled.items():
            cells[col] = spell(cells[col])
        lines[i] = ",".join(cells)
    table.write_text("\n\n".join(lines) + "\n", encoding="utf-8")
    want = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    loaded = load_prehistory_csv(str(table), spec, cfg)
    assert np.array_equal(loaded.table.view(np.int64), want.view(np.int64))
    assert np.array_equal(loaded.table, h.table)


def test_cli_prehistory_table_without_data_rows(tmp_path):
    mapping = _edited_table_config(tmp_path, 0, 0, lambda v: v,
                                   output_dir=str(tmp_path / "empty"))
    table = tmp_path / "tab.csv"
    table.write_text(table.read_text(encoding="utf-8").splitlines()[0] + "\n",
                     encoding="utf-8")
    rc, err = _cli(["run", _write_cfg(tmp_path, mapping)])
    assert rc == 2
    payload = json.loads(err)
    assert (payload["category"], payload["error"]) == ("validation", "ConfigError")
    assert payload["detail"] == f"prehistory table {table} has no data rows"
    assert not os.path.exists(str(tmp_path / "empty"))


def _no_read_table(path):
    raise AssertionError(f"{path} was read line by line")


@pytest.mark.parametrize("shape", ["long", "one row", "crlf"])
def test_streamed_prehistory_table_equals_the_line_path(tmp_path, monkeypatch, shape):
    spec = ParticleSpec(1.0, 0.5, 0.8, "left")
    table = tmp_path / "tab.csv"
    if shape == "long":
        _long_history(spec).export_csv(str(table), comment="c")
    else:
        inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48).export_csv(str(table))
        lines = table.read_text(encoding="utf-8").splitlines()
        ending = "\r\n" if shape == "crlf" else "\n"
        table.write_text(ending.join(lines[:2] if shape == "one row" else lines) + ending,
                         encoding="utf-8", newline="")
    lined = harness._diagnosed_prehistory_table(str(table))
    monkeypatch.setattr(harness, "read_table", _no_read_table)
    streamed = harness._prehistory_table(str(table))
    assert streamed.shape == lined.shape == ({"long": 10_000, "one row": 1}.get(shape, 48), 14)
    assert np.array_equal(streamed.view(np.int64), lined.view(np.int64))


def test_prehistory_table_with_blank_and_comment_lines_among_rows_loads(tmp_path):
    spec, cfg = ParticleSpec(1.0, 0.3, 0.8, "tab"), parse_config(_cfg_mapping())
    h = inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48)
    table = tmp_path / "tab.csv"
    h.export_csv(str(table), comment="c")
    lines = table.read_text(encoding="utf-8").splitlines()
    # numpy's C reader refuses the whitespace-only and "#" lines
    lines = [*lines[:5], "", "   ", "# between rows", *lines[5:30], "\t", "", *lines[30:], " "]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_prehistory_csv(str(table), spec, cfg)
    assert np.array_equal(loaded.table.view(np.int64), h.table.view(np.int64))


def test_valid_prehistory_table_is_read_in_one_pass(tmp_path, monkeypatch):
    spec, cfg = ParticleSpec(1.0, 0.3, 0.8, "tab"), parse_config(_cfg_mapping())
    h = inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48)
    table = tmp_path / "tab.csv"
    h.export_csv(str(table), comment="c")
    # blank and "#" lines before the header do not leave the one-pass path
    table.write_text("# one\n\n  \n" + table.read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.setattr(harness, "read_table", _no_read_table)
    loaded = load_prehistory_csv(str(table), spec, cfg)
    assert np.array_equal(loaded.table.view(np.int64), h.table.view(np.int64))


@pytest.mark.parametrize("rows", [1, 48])
def test_prehistory_table_of_thirteen_columns_has_bad_row_width(tmp_path, rows):
    # numpy's C reader reads it as a (rows, 13) table
    spec, cfg = ParticleSpec(1.0, 0.3, 0.8, "tab"), parse_config(_cfg_mapping())
    table = tmp_path / "tab.csv"
    inertial_history(spec, [0.5, 0, 0], [0.1, 0, 0], -6.0, 0.0, 48).export_csv(str(table))
    header, *lines = table.read_text(encoding="utf-8").splitlines()
    lines = [ln.rsplit(",", 1)[0] for ln in lines[:rows]]
    table.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^prehistory table {re.escape(str(table))}: "
                                          "bad row width$"):
        load_prehistory_csv(str(table), spec, cfg)


def test_check_failed_maps_to_exit3(tmp_path):
    # neutral particles cannot certify non-commutation
    cfg = _cfg_mapping(output_dir=str(tmp_path / "ni0"))
    for p in cfg["particles"]:
        p["q"] = 0.0
    rc, err = _cli(["demo-no-interaction", _write_cfg(tmp_path, cfg)])
    assert rc == 3
    assert json.loads(err)["error"] == "CheckFailed"
