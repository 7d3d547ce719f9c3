"""Config-driven CLI, artifact sinks, and the discretized-action oracle.

Subcommands: run, check-pb, demo-no-interaction, compare-asymptotic,
action-oracle. Exit codes: 0 success, 2 config validation failure,
3 numerical failure (including any enabled assertion that does not
pass), 4 missing artifact. On failure one JSON line with the error
category goes to stderr, with the step, time and particle where the
failing layer named them. Every success artifact is a CSV whose first
line is a comment carrying the config hash.

The action oracle certifies the implemented forces against the
variational formulation. Each particle's action is discretized on
coordinate-time nodes with every source worldline frozen, the delta in
the squared-interval argument is replaced by a normalized Gaussian of
width w, and the exact gradient of that discretized action with
respect to interior node positions is compared against the local
Euler-Lagrange residual m0 c du/ds - (q/c) F u scaled by the local
proper-length weight. The smoothed effective potential reads its cones
and their weights off the system's root plan (retardation._root_plan),
as a_eff_covariant does: external + 2x self + the two-cone binary sum,
with only the causal (past) samples contributing through the Gaussian
window.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import jsonschema
import numpy as np
import yaml

from .canonical import (
    CanonicalState,
    ConstrainedState,
    ContextMismatch,
    FrozenHistoryContext,
    GeneratorSet,
    NumericalNoise,
    PhaseFunction,
    bracket_matrix,
    check_bracket_algebra,
    instant_form_constrained,
    instant_form_increments,
    lorentz_condition_residuals,
    state_from_histories,
)
from .dynamics import (
    InsufficientPrehistory,
    demo_globally_isolated,
    demo_locally_isolated,
    run,
    seed,
    step_count,
)
from .fields import ExternalFieldModel, SelfForceMode, _external_gradient, total_faraday
from .minkowski import lower
from .retardation import DegenerateJacobian, NoConvergence, _root_plan, max_delay
from .worldline import (
    CONSTRAINT_TOL,
    CSV_HEADER,
    HARD_TOL,
    ConstraintViolation,
    NonMonotonicTime,
    ParticleSpec,
    QueryBeyondPresent,
    WorldlineHistory,
    _table_lines,
    copy_histories,
    gather,
    read_table,
    write_table,
)

# oracle calibration constants (empirical, frozen by the test suite):
# source resampling density relative to observer nodes, and the minimum
# number of causal source samples inside the 3-width Gaussian window
SOURCE_FACTOR = 24
SUPPORT_MIN = 6
# size of extremality_ratio's interior bump of the node positions
BUMP_AMPLITUDE = 5e-3
# observer-source pairs per row block of the smoothed line integrals
_BLOCK_PAIRS = 1 << 15


class ConfigError(Exception):
    """Configuration rejected before any work started."""


class WidthTooSmall(Exception):
    """Gaussian width under-resolves the frozen-source sampling."""


class MissingArtifact(Exception):
    """A consumer step found no artifacts to work on."""


class CheckFailed(Exception):
    """An enabled certificate assertion did not pass."""


# -- configuration ------------------------------------------------------------

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}

_PARTICLE_SCHEMA = {
    "type": "object",
    "properties": {
        "label": {"type": "string", "minLength": 1},
        "m0": _POS,
        "q": _NUM,
        "sigma": _POS,
        "position": _VEC3,
        "velocity": _VEC3,
        "prehistory": {"type": "string", "minLength": 1},
    },
    "required": ["label", "m0", "q", "sigma"],
    "additionalProperties": False,
    "oneOf": [
        {"required": ["position", "velocity"],
         "not": {"required": ["prehistory"]}},
        {"required": ["prehistory"],
         "allOf": [{"not": {"required": ["position"]}},
                   {"not": {"required": ["velocity"]}}]},
    ],
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "particles": {"type": "array", "items": _PARTICLE_SCHEMA,
                      "minItems": 1},
        "external": {
            "type": "object",
            "properties": {
                "variant": {"enum": ["none", "constant-uniform"]},
                "E": _VEC3,
                "B": _VEC3,
            },
            "required": ["variant"],
            "additionalProperties": False,
        },
        "mode": {"enum": ["exact", "asymptotic"]},
        "c": _POS,
        "dt": _POS,
        "t0": _NUM,
        "t_end": _NUM,
        "tolerances": {
            "type": "object",
            "properties": {
                "constraint_hard": _POS,
                "constraint_soft": _POS,
            },
            "additionalProperties": False,
        },
        "output_dir": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "sweep": {
            "type": "object",
            "properties": {
                "sigmas": {"type": "array", "items": _POS, "minItems": 1},
            },
            "required": ["sigmas"],
            "additionalProperties": False,
        },
        "oracle": {
            "type": "object",
            "properties": {
                "width": _POS,
                "nodes": {"type": "integer", "minimum": 32},
            },
            "required": ["width"],
            "additionalProperties": False,
        },
    },
    "required": ["particles", "mode", "c", "dt", "t0", "t_end", "output_dir"],
    "additionalProperties": False,
}

# compiled once; CONFIG_SCHEMA is a constant, so its metaschema check
# lives in the test suite rather than on every load
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(
    CONFIG_SCHEMA)


@dataclass(frozen=True)
class ParticleConfig:
    label: str
    m0: float
    q: float
    sigma: float
    position: tuple | None = None
    velocity: tuple | None = None
    prehistory: str | None = None

    def to_mapping(self) -> dict:
        out = {"label": self.label, "m0": self.m0, "q": self.q,
               "sigma": self.sigma}
        if self.prehistory is not None:
            out["prehistory"] = self.prehistory
        else:
            out["position"] = list(self.position)
            out["velocity"] = list(self.velocity)
        return out


@dataclass(frozen=True)
class OracleConfig:
    """Gaussian width and observer node count of the oracle."""

    width: float
    nodes: int = 64

    def __post_init__(self):
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ConfigError("oracle width must be positive and finite")
        if self.nodes < 32:
            raise ConfigError("oracle needs at least 32 nodes")


@dataclass(frozen=True)
class RunConfig:
    particles: tuple
    mode: str
    c: float
    dt: float
    t0: float
    t_end: float
    output_dir: str
    external_variant: str = "none"
    external_E: tuple = (0.0, 0.0, 0.0)
    external_B: tuple = (0.0, 0.0, 0.0)
    constraint_hard: float = HARD_TOL
    constraint_soft: float = CONSTRAINT_TOL
    seed: int = 0
    sweep_sigmas: tuple | None = None
    oracle: OracleConfig | None = None

    def to_mapping(self) -> dict:
        out = {
            "particles": [p.to_mapping() for p in self.particles],
            "external": {"variant": self.external_variant},
            "mode": self.mode,
            "c": self.c,
            "dt": self.dt,
            "t0": self.t0,
            "t_end": self.t_end,
            "tolerances": {"constraint_hard": self.constraint_hard,
                           "constraint_soft": self.constraint_soft},
            "output_dir": self.output_dir,
            "seed": self.seed,
        }
        if self.external_variant == "constant-uniform":
            out["external"]["E"] = list(self.external_E)
            out["external"]["B"] = list(self.external_B)
        if self.sweep_sigmas is not None:
            out["sweep"] = {"sigmas": list(self.sweep_sigmas)}
        if self.oracle is not None:
            out["oracle"] = {"width": self.oracle.width,
                             "nodes": self.oracle.nodes}
        return out


def _require_finite(node, path="config"):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            raise ConfigError(f"{path} is not finite")
        return
    if isinstance(node, dict):
        for k, v in node.items():
            _require_finite(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _require_finite(v, f"{path}[{i}]")


def parse_config(mapping) -> RunConfig:
    """Validate a raw mapping against the schema and build a RunConfig."""
    error = jsonschema.exceptions.best_match(
        _CONFIG_VALIDATOR.iter_errors(mapping))
    if error is not None:
        raise ConfigError(f"schema violation: {error.message}") from error
    _require_finite(mapping)
    try:
        step_count(mapping["t_end"] - mapping["t0"], mapping["dt"])
    except ValueError as exc:
        raise ConfigError(f"t_end - t0: {exc}") from exc
    labels = [p["label"] for p in mapping["particles"]]
    if len(set(labels)) != len(labels):
        raise ConfigError("particle labels must be unique")

    particles = tuple(
        ParticleConfig(
            label=p["label"], m0=float(p["m0"]), q=float(p["q"]),
            sigma=float(p["sigma"]),
            position=tuple(float(v) for v in p["position"])
            if "position" in p else None,
            velocity=tuple(float(v) for v in p["velocity"])
            if "velocity" in p else None,
            prehistory=p.get("prehistory"))
        for p in mapping["particles"])
    ext = mapping.get("external", {"variant": "none"})
    tol = mapping.get("tolerances", {})
    sweep = mapping.get("sweep")
    oracle = mapping.get("oracle")
    return RunConfig(
        particles=particles,
        mode=mapping["mode"],
        c=float(mapping["c"]),
        dt=float(mapping["dt"]),
        t0=float(mapping["t0"]),
        t_end=float(mapping["t_end"]),
        output_dir=mapping["output_dir"],
        external_variant=ext["variant"],
        external_E=tuple(float(v) for v in ext.get("E", (0.0, 0.0, 0.0))),
        external_B=tuple(float(v) for v in ext.get("B", (0.0, 0.0, 0.0))),
        constraint_hard=float(tol.get("constraint_hard", HARD_TOL)),
        constraint_soft=float(tol.get("constraint_soft", CONSTRAINT_TOL)),
        seed=int(mapping.get("seed", 0)),
        sweep_sigmas=tuple(float(v) for v in sweep["sigmas"])
        if sweep else None,
        oracle=OracleConfig(width=float(oracle["width"]),
                            nodes=int(oracle.get("nodes", OracleConfig.nodes)))
        if oracle else None,
    )


# libyaml's safe loader and dumper where PyYAML was built with it: the
# same documents and text as the pure-Python classes, several times
# faster on a config
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return parse_config(raw)


def config_hash(cfg: RunConfig) -> str:
    """Hash of the config without output_dir: an artifact's hash names
    what made it, not where it was written."""
    mapping = cfg.to_mapping()
    del mapping["output_dir"]
    text = yaml.dump(mapping, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=None)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- state assembly -----------------------------------------------------------

def _external_model(cfg: RunConfig) -> ExternalFieldModel:
    if cfg.external_variant == "none":
        return ExternalFieldModel.none()
    return ExternalFieldModel.uniform(E=cfg.external_E, B=cfg.external_B)


def load_prehistory_csv(path, spec: ParticleSpec, cfg: RunConfig) -> WorldlineHistory:
    """Read a worldline table; its rows are checked as one block under
    cfg's tolerances."""
    h = WorldlineHistory(spec, c=cfg.c)
    h.hard_tol, h.constraint_tol = cfg.constraint_hard, cfg.constraint_soft
    h.extend(_prehistory_table(path))
    return h


def _prehistory_table(path) -> np.ndarray:
    """The (rows, 14) float table of a prehistory CSV in CSV_HEADER order.

    A valid table is read in one pass: its header is found by read_table's
    rule (_table_lines) and the rest of the open file goes straight to
    numpy's C reader, so no Python string is kept per line. A table that
    reader refuses, or reads to any shape but (rows >= 1, 14), is read
    again line by line by _diagnosed_prehistory_table, which names what
    is wrong or, when only blank or "#" lines among the rows upset the
    C reader, returns the table."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        # numpy warns on an empty data section, which reads as no rows here
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        if next(_table_lines(fh), "").split(",") == CSV_HEADER:
            try:
                tab = _floats(fh)
            except ValueError:
                pass
            else:
                if len(tab) and tab.shape[1] == len(CSV_HEADER):
                    return tab
    return _diagnosed_prehistory_table(path)


def _diagnosed_prehistory_table(path) -> np.ndarray:
    """_prehistory_table read line by line (read_table): the ConfigError
    that names the table's first fault, or the table if it has none."""
    header, lines = read_table(path)
    if not header:
        raise ConfigError(f"prehistory table {path} is empty")
    if header != CSV_HEADER:
        raise ConfigError(f"prehistory table {path} has header {header}, "
                          f"expected {CSV_HEADER}")
    if not lines:
        raise ConfigError(f"prehistory table {path} has no data rows")
    if any(ln.count(",") != len(CSV_HEADER) - 1 for ln in lines):
        raise ConfigError(f"prehistory table {path}: bad row width")
    try:
        # parsed in C as one table: no Python float is made per cell
        return _floats(lines)
    except ValueError as exc:
        # only after a failure is each row parsed alone, to name the first
        # one that fails and its first cell that fails
        row, ln = next((i, ln) for i, ln in enumerate(lines, 1) if not _parses(ln))
        cell = next(v for v in ln.split(",") if not (v.strip() and _parses(v)))
        raise ConfigError(f"prehistory table {path}: data row {row} has a "
                          f"non-numeric cell {cell!r}") from exc


def _floats(lines) -> np.ndarray:
    """(rows, cells) float64 array of comma-separated lines (a list of
    strings or an open file), read by numpy's C parser; raises ValueError
    on a cell that is not a float or a row of another width."""
    return np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None)


def _parses(line: str) -> bool:
    try:
        _floats([line])
    except ValueError:
        return False
    return True


def build_state(cfg: RunConfig, base_dir=".", mode=None):
    """Seed a SystemState from a validated config.

    Table particles load their own prehistory, which must reach the delay
    depth refined from the actual roots before t0 (InsufficientPrehistory
    otherwise). Instant-state particles get the inertial prehistory seed
    synthesizes, the same whether or not other particles carry tables.
    """
    specs = [ParticleSpec(p.m0, p.q, p.sigma, p.label) for p in cfg.particles]
    tables = [None if p.prehistory is None else
              load_prehistory_csv(os.path.join(base_dir, p.prehistory), spec, cfg)
              for p, spec in zip(cfg.particles, specs)]
    st = seed(specs, [p.position for p in cfg.particles],
              [p.velocity for p in cfg.particles], prehistories=tables,
              t0=cfg.t0, dt=cfg.dt, c=cfg.c,
              external=_external_model(cfg),
              mode=SelfForceMode(cfg.mode if mode is None else mode))
    for h in st.histories:
        h.hard_tol = cfg.constraint_hard
        h.constraint_tol = cfg.constraint_soft
    return st


# -- artifacts -----------------------------------------------------------------

class _Artifacts:
    """Tables of one command under its output directory, each headed by
    the comment "config-hash: <hash of the config>" (the tag), which is
    computed once."""

    def __init__(self, cfg: RunConfig):
        self.dir = cfg.output_dir
        self.tag = f"config-hash: {config_hash(cfg)}"

    def write(self, name, header, rows) -> None:
        write_table(os.path.join(self.dir, name), header, rows, self.tag)

    def checks(self, name, header, rows, failure: str) -> None:
        """Write rows whose last cell is a pass flag, written as the status
        "pass" or "fail"; then raise CheckFailed(failure) unless all passed."""
        self.write(name, header, [(*r[:-1], "pass" if r[-1] else "fail") for r in rows])
        if not all(r[-1] for r in rows):
            raise CheckFailed(failure)


# -- the discretized-action oracle ---------------------------------------------

@dataclass
class _FrozenSource:
    """A worldline resampled on a fine uniform coordinate-time grid."""

    t: np.ndarray
    r: np.ndarray
    u_cov: np.ndarray
    w_quad: np.ndarray  # trapezoid weights in proper time


def _freeze_source(h: WorldlineHistory, t_hi: float, m: int) -> _FrozenSource:
    ts = np.linspace(h.t_first, t_hi, m)
    states = h.states_at(ts)
    rs, us, ss = states.r, lower(states.u), states.s
    w = np.empty(m)
    w[1:-1] = 0.5 * (ss[2:] - ss[:-2])
    w[0] = 0.5 * (ss[1] - ss[0])
    w[-1] = 0.5 * (ss[-1] - ss[-2])
    return _FrozenSource(t=ts, r=rs, u_cov=us, w_quad=w)


def _smoothed_dli(src: _FrozenSource, r_obs, dr, sigma: float, q: float,
                  width: float, c: float):
    """Gaussian-smoothed causal line integrals A, covariant components, at
    each row of the observer block r_obs (P, 4), and their derivatives
    J_mu = (dA_nu/dr^mu) dr^nu along the rows of dr (P, 4): (A, J), each
    (P, 4).

    A converges as width -> 0 to lower(line_potentials(...)) of the
    causal root on the same cone: the resolved root carries u/(2|R.u|)
    per unit charge and the leading 2 restores the production
    normalization q u/|R.u|. J differentiates the Gaussian g(f) of each
    source sample, dg/df = -g f / w^2 with df/dr = 2 lower(r - r_s); the
    causal mask is a step in the source time and is not differentiated.
    Rows are taken in blocks of _BLOCK_PAIRS observer-source pairs, so
    the temporaries stay near 1 MB whatever P is.
    """
    rows = max(1, _BLOCK_PAIRS // len(src.t))
    src_r = src.r.T.copy()  # one contiguous row per component
    src_r_cov = lower(src.r)
    A, J = np.empty((len(r_obs), 4)), np.empty((len(r_obs), 4))
    for b in range(0, len(r_obs), rows):
        blk = r_obs[b:b + rows]
        f = np.square(blk[:, 0, None] - src_r[0])
        for mu in (1, 2, 3):
            f -= np.square(blk[:, mu, None] - src_r[mu])
        f -= sigma * sigma
        causal = src.t < blk[:, 0, None] / c
        support = np.count_nonzero(causal & (np.abs(f) < 3.0 * width), axis=1)
        if support.min() < SUPPORT_MIN:
            n = int(support[np.argmax(support < SUPPORT_MIN)])
            raise WidthTooSmall(
                f"only {n} causal source samples inside the Gaussian window "
                f"(need {SUPPORT_MIN}); widen w or refine the source sampling")
        g = np.exp(-0.5 * (f / width) ** 2) / (width * math.sqrt(2.0 * math.pi))
        g *= causal
        g *= src.w_quad
        A[b:b + rows] = 2.0 * q * (g @ src.u_cov)
        k = g * (-f / (width * width)) * (dr[b:b + rows] @ src.u_cov.T)
        J[b:b + rows] = 4.0 * q * (lower(blk) * k.sum(axis=1)[:, None] - k @ src_r_cov)
    return A, J


def _smoothed_a_eff(sources, specs, external: ExternalFieldModel, i: int,
                    r_obs, dr, width: float, c: float):
    """Smoothed analogue of a_eff_covariant on frozen sources at each row
    of r_obs (P, 4), and its derivative J along the rows of dr (P, 4), as
    in _smoothed_dli: (A, J).

    The cones and their weights are the rows of particle i's root plan
    that carry a potential weight. The external part of J contracts
    fields._external_gradient with dr: F dr / 2 in the constant-uniform
    field's linear gauge and 0 with no field, and a user-analytic field,
    which gives no derivative of its potential, is refused there
    (ValueError)."""
    J = np.einsum("pmn,pn->pm", _external_gradient(external, r_obs), dr)
    A = external.potential(r_obs)
    plan = _root_plan(tuple(specs), (i,))
    for j, sigma, w in zip(plan.src, plan.sigma, plan.w):
        if w:
            a, d = _smoothed_dli(sources[j], r_obs, dr, sigma, specs[j].q, width, c)
            A += w * a
            J += w * d
    return A, J


def _segment_geometry(nodes_r):
    """Segment vectors, proper lengths and midpoints of the node path
    nodes_r (K, 4)."""
    dr = nodes_r[1:] - nodes_r[:-1]
    sq = dr[:, 0] ** 2 - dr[:, 1] ** 2 - dr[:, 2] ** 2 - dr[:, 3] ** 2
    if np.any(sq <= 0.0):
        raise ValueError("worldline segments must be timelike")
    return dr, np.sqrt(sq), 0.5 * (nodes_r[1:] + nodes_r[:-1])


def node_gradient(nodes_r, i, sources, specs, external, width, c) -> np.ndarray:
    """Gradient of particle i's discretized action at the interior nodes
    of nodes_r (K, 4): (K - 2, 4), covariant.

    Segment k contributes m0 c L_k + (q/c) A(mid_k).dr_k. Its derivative
    in its end node is pull_k + half_k, with pull = m0 c lower(dr)/L +
    (q/c) A and half = (q/2c) J, J_mu = (dA_nu/dr^mu) dr^nu at the
    midpoint; in its start node it is -pull_k + half_k. The midpoints of
    all segments are evaluated as one block.
    """
    dr, L, mid = _segment_geometry(nodes_r)
    A, J = _smoothed_a_eff(sources, specs, external, i, mid, dr, width, c)
    m0, q = specs[i].m0, specs[i].q
    pull = m0 * c * lower(dr) / L[:, None] + (q / c) * A
    half = (0.5 * q / c) * J
    return pull[:-1] - pull[1:] + half[:-1] + half[1:]


def el_residual_covariant(histories, external, t) -> np.ndarray:
    """Production-path E-L residuals m0 c du/ds - f of every particle at
    time t, (N, 4), f the covariant force (q/c) F u of one total_faraday
    batch; c is the histories' own (gather checks that they share it)."""
    n = len(histories)
    c = histories[0].c
    now = gather(histories, np.arange(n), np.full(n, float(t)))
    f, (plan, _) = total_faraday(histories, now, external, SelfForceMode.EXACT)
    return (plan.obs_m0 * c)[:, None] * lower(now.a) - f


@dataclass
class OracleReport:
    times: np.ndarray          # interior node times, shared by particles
    gradients: list            # per particle, (nodes-2, 4)
    expected: list             # per particle, -weight * E-L residual
    rel_mismatch: float        # worst relative disagreement (not gated)
    rows: list                 # CSV-ready (label, t, |grad|, |expected|, rel)
    sources: list              # the frozen sources the gradients were taken on


def _freeze_sources(hists, cfg: OracleConfig, t_hi: float) -> list:
    return [_freeze_source(h, t_hi, SOURCE_FACTOR * cfg.nodes) for h in hists]


def action_oracle(histories, cfg: OracleConfig, t_lo: float, t_hi: float,
                  external: ExternalFieldModel | None = None) -> OracleReport:
    """Compare the action gradient against the implemented forces.

    The observer window [t_lo, t_hi] must leave enough frozen history
    below t_lo for every retarded root.

    rel_mismatch and the per-node relative column are reported, not
    gated: on a dynamics trajectory the expected Euler-Lagrange residual
    is near zero, since the trajectory solves the equations of motion,
    and the gradient is near zero with it, so their ratio measures
    nothing there. Only extremality_ratio certifies such a trajectory;
    the relative agreement is meaningful where the forces are resolved,
    as on prescribed worldlines.
    """
    external = external or ExternalFieldModel.none()
    hists = list(histories)
    c = hists[0].c
    if not t_hi > t_lo:
        raise ValueError("t_hi must exceed t_lo")
    depth = max_delay(hists, t_lo)
    if t_lo - depth < max(h.t_first for h in hists):
        raise ValueError(
            f"observer window needs {depth} of history below t_lo")
    specs = [h.spec for h in hists]
    sources = _freeze_sources(hists, cfg, t_hi)
    ts = np.linspace(t_lo, t_hi, cfg.nodes)

    # every particle's expected residual at each interior node time
    residuals = np.array([el_residual_covariant(hists, external, float(t))
                          for t in ts[1:-1]])
    grads, expect, rows = [], [], []
    worst = 0.0
    for i, h in enumerate(hists):
        nodes_r = h.states_at(ts).r
        g = node_gradient(nodes_r, i, sources, specs, external, cfg.width, c)
        _, L, _ = _segment_geometry(nodes_r)
        wgt = 0.5 * (L[:-1] + L[1:])
        want = -wgt[:, None] * residuals[:, i]
        grads.append(g)
        expect.append(want)
        scale = float(np.max(np.abs(want))) if np.max(np.abs(want)) > 0 \
            else 1.0
        for k, t in enumerate(ts[1:-1]):
            gn = float(np.linalg.norm(g[k]))
            wn = float(np.linalg.norm(want[k]))
            rel = float(np.linalg.norm(g[k] - want[k])) / max(wn, scale * 0.1)
            rows.append((h.spec.label, float(t), gn, wn, rel))
            worst = max(worst, rel)
    return OracleReport(times=ts[1:-1], gradients=grads, expected=expect,
                        rel_mismatch=worst, rows=rows, sources=sources)


def extremality_ratio(histories, cfg: OracleConfig, t_lo: float, t_hi: float,
                      external: ExternalFieldModel | None = None,
                      rng=None, oracle: OracleReport | None = None) -> dict:
    """Gradient norm on the dynamics trajectory vs a perturbed copy.

    The perturbation is a smooth interior bump of size BUMP_AMPLITUDE
    of the spatial node positions, endpoints fixed. oracle, the
    action_oracle report on the same histories, cfg, window and external
    field, gives the on-trajectory gradients and the frozen sources,
    which are then not made again; the result is the same.
    """
    external = external or ExternalFieldModel.none()
    rng = rng or np.random.default_rng(0)
    hists = list(histories)
    c = hists[0].c
    specs = [h.spec for h in hists]
    ts = np.linspace(t_lo, t_hi, cfg.nodes)
    sources = _freeze_sources(hists, cfg, t_hi) if oracle is None else oracle.sources
    bump = np.sin(np.pi * np.linspace(0.0, 1.0, cfg.nodes))

    n_true = 0.0
    n_pert = 0.0
    for i, h in enumerate(hists):
        nodes_r = h.states_at(ts).r
        g0 = (node_gradient(nodes_r, i, sources, specs, external, cfg.width, c)
              if oracle is None else oracle.gradients[i])
        n_true += float(np.sum(g0 * g0))
        pert = nodes_r.copy()
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pert[:, 1:] += BUMP_AMPLITUDE * bump[:, None] * direction[None, :]
        g1 = node_gradient(pert, i, sources, specs, external, cfg.width, c)
        n_pert += float(np.sum(g1 * g1))
    n_true, n_pert = math.sqrt(n_true), math.sqrt(n_pert)
    return {"gradient_norm": n_true, "perturbed_norm": n_pert,
            "ratio": n_true / n_pert if n_pert > 0 else float("inf")}


# -- subcommand bodies ----------------------------------------------------------

def cmd_run(cfg: RunConfig, base_dir=".") -> dict:
    st = build_state(cfg, base_dir)
    out = _Artifacts(cfg)
    run(st, cfg.t_end, trajectory_dir=out.dir,
        diagnostics_path=os.path.join(out.dir, "diagnostics.csv"),
        csv_comment=out.tag)
    worst = max(float(np.max(r.constraint_err))
                for r in st.diagnostics.records)
    out.write("run_summary.csv", ["key", "value"],
              [("t_final", st.t_now), ("steps", len(st.diagnostics)),
               ("max_constraint_err", worst),
               ("soft_tolerance_met", float(worst < cfg.constraint_soft))])
    return {"state": st, "max_constraint_err": worst}


# scales of a random canonical state's r and P normals
_DRAW_SCALES = np.array([2.0, 1.5])[:, None, None]


def _random_canonical_state(rng, n: int, *stack: int) -> CanonicalState:
    """A random state of n particles, or a stack of shape `stack` of them
    drawn in one rng.normal call that consumes the normals that many
    single draws would, r then P of each state, with the same bits."""
    z = rng.normal(scale=_DRAW_SCALES, size=(*stack, 2, n, 4))
    return CanonicalState(z[..., 0, :, :], z[..., 1, :, :])


def _coordinate_function(block: str, i: int, mu: int) -> PhaseFunction:
    def ev(x, i=i, mu=mu):
        return float((x.r if block == "r" else x.P)[i, mu])

    def gr(x, i=i, mu=mu):
        gr_ = np.zeros((x.n, 4))
        gP_ = np.zeros((x.n, 4))
        (gr_ if block == "r" else gP_)[i, mu] = 1.0
        return gr_, gP_

    return PhaseFunction(ev, gradient=gr)


def cmd_check_pb(cfg: RunConfig) -> dict:
    """Exact-identity certificates of the bracket layer; writes one table."""
    rng = np.random.default_rng(cfg.seed)
    n = max(2, len(cfg.particles))
    rows = []

    # every [r, r], [P, P] and [r_i^mu, P_j,nu] against the symplectic form
    coords = [_coordinate_function(b, i, mu) for b in "rP" for i in range(n) for mu in range(4)]
    symplectic = np.block([[np.zeros((4 * n, 4 * n)), np.eye(4 * n)],
                           [-np.eye(4 * n), np.zeros((4 * n, 4 * n))]])
    fund = 0.0
    for _ in range(20):
        x = _random_canonical_state(rng, n)
        fund = max(fund, float(np.max(np.abs(bracket_matrix(coords, coords, x) - symplectic))))
    rows.append(("fundamental_pb", fund, 1e-14, fund < 1e-14))

    gens = GeneratorSet()
    lor = lorentz_condition_residuals(_random_canonical_state(rng, n, 100), gens)
    for k, v in lor.items():
        rows.append((f"lorentz_condition_{k}", v, 1e-11, v < 1e-11))

    alg = {"antisymmetry": 0.0, "linearity": 0.0, "leibniz": 0.0,
           "jacobi": 0.0}
    triples = [(gens.p_hat[0], gens.M(0, 1), gens.M(1, 2)),
               (gens.M(0, 1), gens.M(0, 2), gens.p_hat[2]),
               (gens.p_hat[1], gens.p_hat[2], gens.M(2, 3))]
    for _ in range(5):
        x = _random_canonical_state(rng, n)
        rep = check_bracket_algebra(x, triples)
        for k in alg:
            alg[k] = max(alg[k], rep[k])
    for k, v in alg.items():
        rows.append((f"bracket_{k}", v, 1e-10, v < 1e-10))

    _Artifacts(cfg).checks("pb_residuals.csv", ["check", "residual", "threshold", "status"],
                           rows, "bracket-layer residuals exceed thresholds")
    return {"rows": rows}


def _neutral_context(ctx_histories, external, t_ref):
    specs = [ParticleSpec(h.spec.m0, 0.0, h.spec.sigma, h.spec.label) for h in ctx_histories]
    return FrozenHistoryContext(copy_histories(ctx_histories, specs), external, t_ref)


def cmd_demo_no_interaction(cfg: RunConfig, base_dir=".") -> dict:
    """Counter-example reports plus the non-commutation certificate."""
    if cfg.external_variant != "none":
        raise ConfigError("demo-no-interaction certifies the isolated system; "
                          f"external variant {cfg.external_variant!r} is not allowed")
    st = build_state(cfg, base_dir)
    run(st, cfg.t_end)
    ctx = FrozenHistoryContext(st.histories, ExternalFieldModel.none(), st.t_now)
    x = state_from_histories(st.histories, st.t_now, ctx)
    xp = ConstrainedState(x.r[:, 1:], x.P[:, 1:])
    rep = instant_form_constrained(xp, ctx)
    comm = float(np.max(np.abs(rep["comm_p0_pl"])))

    ctx0 = _neutral_context(st.histories, ExternalFieldModel.none(), st.t_now)
    rep0 = instant_form_constrained(xp, ctx0)
    comm0 = float(np.max(np.abs(rep0["comm_p0_pl"])))

    dr, _ = instant_form_increments(xp, ctx, st.dt)
    u = gather(st.histories, np.arange(st.n), np.full(st.n, st.t_now)).u
    v_err = float(np.max(np.abs(dr - st.dt * (st.c * u[:, 1:] / u[:, :1]))))

    pulse = demo_locally_isolated(c=cfg.c)
    control = demo_locally_isolated(e_amp=0.0, c=cfg.c)
    pair = demo_globally_isolated(c=cfg.c)

    rows = [
        ("certificate_comm_interacting", comm, "> 1e-8", comm > 1e-8),
        ("certificate_comm_neutral", comm0, "< 1e-12", comm0 < 1e-12),
        ("increment_velocity_residual", v_err, "< 1e-6", v_err < 1e-6),
        ("pulse_post_switch_self_force", pulse["post_switch_max_self_force"],
         "> 1e-10", pulse["post_switch_max_self_force"] > 1e-10),
        ("pulse_q_doubling_ratio", pulse["q_doubling_ratio"],
         "== 4", pulse["q_doubling_ratio"] == 4.0),
        ("pulse_control_self_force", control["post_switch_max_self_force"],
         "< 1e-12", control["post_switch_max_self_force"] < 1e-12),
        ("pair_mirror_residual", pair["mirror_residual"],
         "< 1e-9", pair["mirror_residual"] < 1e-9),
    ]
    _Artifacts(cfg).checks("no_interaction_report.csv", ["check", "value", "criterion", "status"],
                           rows, "no-interaction certificate thresholds not met")
    return {"rows": rows, "comm": comm, "comm_neutral": comm0}


def cmd_compare_asymptotic(cfg: RunConfig, base_dir=".") -> dict:
    if cfg.sweep_sigmas is None:
        raise ConfigError("compare-asymptotic needs a sweep.sigmas list")
    rows = []
    for sg in cfg.sweep_sigmas:
        parts = tuple(replace(p, sigma=float(sg)) for p in cfg.particles)
        swept = replace(cfg, particles=parts)
        pos = []
        for md in ("exact", "asymptotic"):
            st = run(build_state(swept, base_dir, mode=md), cfg.t_end)
            pos.append(gather(st.histories, np.arange(st.n), np.full(st.n, cfg.t_end)).r[:, 1:])
        gap = float(np.max(np.abs(pos[0] - pos[1])))
        if not math.isfinite(gap):
            raise CheckFailed(f"divergence at sigma={sg} is not finite")
        rows.append((sg, gap))
    _Artifacts(cfg).write("asymptotic_gap.csv", ["sigma", "divergence"], rows)
    return {"rows": rows}


def cmd_action_oracle(cfg: RunConfig, base_dir=".") -> dict:
    if cfg.oracle is None:
        raise ConfigError("action-oracle needs an oracle section")
    st = build_state(cfg, base_dir)
    run(st, cfg.t_end)
    ext = _external_model(cfg)
    depth = max_delay(st.histories, cfg.t0)
    t_lo = cfg.t0 + 0.05 * (st.t_now - cfg.t0)
    if t_lo - depth < max(h.t_first for h in st.histories):
        t_lo = max(h.t_first for h in st.histories) + 1.02 * depth
    rep = action_oracle(st.histories, cfg.oracle, t_lo, st.t_now, ext)
    ext_rep = extremality_ratio(st.histories, cfg.oracle, t_lo, st.t_now,
                                ext, rng=np.random.default_rng(cfg.seed), oracle=rep)
    out = _Artifacts(cfg)
    out.write("action_residuals.csv",
              ["particle", "t", "grad_norm", "force_norm", "relative"], rep.rows)
    out.write("action_summary.csv", ["key", "value"],
              [("rel_mismatch", rep.rel_mismatch),
               ("extremality_ratio", ext_rep["ratio"]),
               ("gradient_norm", ext_rep["gradient_norm"]),
               ("perturbed_norm", ext_rep["perturbed_norm"])])
    if ext_rep["ratio"] > 0.1:
        raise CheckFailed(
            f"action gradient on the trajectory is {ext_rep['ratio']:.3f} "
            f"of the perturbed norm (need <= 0.1)")
    return {"report": rep, "extremality": ext_rep, "state": st,
            "window": (t_lo, st.t_now)}


# -- plot-data bundles -----------------------------------------------------------

# (run artifact, its plot bundle, the columns the bundle keeps as
# (source name, bundle name) pairs from the artifact's header); a "*" in
# the artifact name carries over to the bundle name
_PLOT_BUNDLES = (
    ("trajectory_*.csv", "*_projection.csv",
     lambda head: [("t", "t"), ("r1", "x"), ("r2", "y"), ("r3", "z")]),
    ("diagnostics.csv", "constraint_drift.csv",
     lambda head: [(k, k) for k in head if k in ("step", "t") or k.startswith("constraint_err_")]),
    ("asymptotic_gap.csv", "gap_vs_sigma.csv", lambda head: zip(head, head)),
    ("pb_residuals.csv", "pb_residual_table.csv", lambda head: zip(head, head)),
)


def emit_plots_data(run_dir) -> list:
    """Re-shape run artifacts into plot-ready CSVs under run_dir/plots."""
    if not os.path.isdir(run_dir):
        raise MissingArtifact(f"{run_dir} does not exist")
    written = []
    names = sorted(os.listdir(run_dir))
    for pattern, bundle, columns in _PLOT_BUNDLES:
        pre, _, post = pattern.partition("*")
        for name in fnmatch.filter(names, pattern):
            path = os.path.join(run_dir, name)
            header, lines = read_table(path)
            if not header:
                raise MissingArtifact(f"{path} has no data rows")
            keep, out_header = zip(*columns(header))
            idx = [header.index(k) for k in keep]
            stem = name[len(pre):len(name) - len(post)]
            out = os.path.join(run_dir, "plots", bundle.replace("*", stem))
            write_table(out, out_header, ([cells[i] for i in idx] for cells in
                                          (ln.split(",") for ln in lines)))
            written.append(out)
    if not written:
        raise MissingArtifact(f"no recognized artifacts under {run_dir}")
    return written


# -- CLI -------------------------------------------------------------------------

_NUMERICAL_ERRORS = (
    ConstraintViolation, NonMonotonicTime, QueryBeyondPresent,
    NoConvergence, DegenerateJacobian, InsufficientPrehistory,
    NumericalNoise, ContextMismatch, WidthTooSmall,
    CheckFailed, FloatingPointError, ValueError,
)


def _fail(category: str, exc: Exception, code: int) -> int:
    payload = {"category": category, "error": type(exc).__name__, "detail": str(exc)}
    # failure context, where the raising layer attached it
    for key in ("step", "t", "particle"):
        if getattr(exc, key, None) is not None:
            payload[key] = getattr(exc, key)
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="retnbody",
        description="Retarded EM N-body runs and verification certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "check-pb", "demo-no-interaction",
                 "compare-asymptotic", "action-oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="YAML run configuration")
        sp.add_argument("--output-dir", default=None,
                        help="override the configured output directory")
        if name in ("run", "compare-asymptotic"):
            sp.add_argument("--plots", action="store_true",
                            help="also emit plot-ready CSV bundles")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.output_dir is not None:
            cfg = replace(cfg, output_dir=args.output_dir)
        base_dir = os.path.dirname(os.path.abspath(args.config))
        if args.command == "run":
            cmd_run(cfg, base_dir)
            if args.plots:
                emit_plots_data(cfg.output_dir)
        elif args.command == "check-pb":
            cmd_check_pb(cfg)
        elif args.command == "demo-no-interaction":
            cmd_demo_no_interaction(cfg, base_dir)
        elif args.command == "compare-asymptotic":
            cmd_compare_asymptotic(cfg, base_dir)
            if args.plots:
                emit_plots_data(cfg.output_dir)
        elif args.command == "action-oracle":
            cmd_action_oracle(cfg, base_dir)
    except ConfigError as exc:
        return _fail("validation", exc, 2)
    except MissingArtifact as exc:
        return _fail("missing-artifact", exc, 4)
    except _NUMERICAL_ERRORS as exc:
        return _fail("numerical", exc, 3)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
