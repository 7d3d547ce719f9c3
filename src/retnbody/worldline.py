"""Particle specs and sampled worldline histories with dense interpolation.

A history stores time-ordered samples (t, s, r, u, a) for one particle:
  t   coordinate time
  s   proper time in length units, accumulated as ds = c dt / gamma
  r   contravariant position, r^0 = c t exactly
  u   dimensionless four-velocity (gamma, gamma*beta), u.u = 1 on shell
  a   du/ds, units 1/length, orthogonal to u on shell

Queries between nodes use cubic Hermite interpolation of r (with the node
velocity dr/dt = c u / gamma as derivative data), of u (with du/dt =
a c / gamma), and of s (with ds/dt = c / gamma). The acceleration returned
at a query point is recovered from the u-interpolant so it coincides with
the stored a at the nodes. For t at or before the first sample the history
falls back to an exact analytic inertial extension of samples[0], so
delay-root searches can look arbitrarily far into the past.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

CONSTRAINT_TOL = 1e-9
HARD_TOL = 1e-6

CSV_HEADER = ["t", "s", "r0", "r1", "r2", "r3",
              "u0", "u1", "u2", "u3", "a0", "a1", "a2", "a3"]


class QueryBeyondPresent(Exception):
    """Raised when a history is queried past its latest stored time."""


class NonMonotonicTime(Exception):
    """Raised when an appended sample does not advance coordinate time."""


class ConstraintViolation(Exception):
    """Raised when the four-velocity normalization breaks the hard tolerance."""


@dataclass(frozen=True)
class ParticleSpec:
    """Constant attributes of one finite-size charged particle."""

    m0: float
    q: float
    sigma: float
    label: str = "p"

    def __post_init__(self):
        if not (self.m0 > 0.0):
            raise ValueError("rest mass must be positive")
        if not (self.sigma > 0.0):
            raise ValueError("particle radius must be positive")
        if not np.isfinite(self.q):
            raise ValueError("charge must be finite")

    def em_mass(self, c: float = 1.0) -> float:
        """Leading-order electromagnetic mass q^2 / (c^2 sigma)."""
        return self.q**2 / (c**2 * self.sigma)


@dataclass(frozen=True)
class WorldlineSample:
    t: float
    s: float
    r: np.ndarray
    u: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        for name in ("r", "u", "a"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (4,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite four-vector")
            object.__setattr__(self, name, v)


def _udot_u(u) -> float:
    return float(u[0] * u[0] - u[1:] @ u[1:])


def _udot_ua(u, a) -> float:
    return float(u[0] * a[0] - u[1:] @ a[1:])


def sample_from_state(t: float, s: float, x3, u, a, c: float = 1.0) -> WorldlineSample:
    """Build a sample with the exact coordinate-time parametrization r^0 = c t."""
    r = np.concatenate(([c * t], np.asarray(x3, dtype=np.float64)))
    return WorldlineSample(t=float(t), s=float(s), r=r,
                           u=np.asarray(u, dtype=np.float64),
                           a=np.asarray(a, dtype=np.float64))


# cubic Hermite basis on the unit interval
def _h00(x):
    return 2.0 * x**3 - 3.0 * x**2 + 1.0


def _h10(x):
    return x**3 - 2.0 * x**2 + x


def _h01(x):
    return -2.0 * x**3 + 3.0 * x**2


def _h11(x):
    return x**3 - x**2


def _hermite(y0, dy0, y1, dy1, h, x):
    return (_h00(x) * y0 + h * _h10(x) * dy0
            + _h01(x) * y1 + h * _h11(x) * dy1)


def _hermite_d(y0, dy0, y1, dy1, h, x):
    return ((6.0 * x**2 - 6.0 * x) / h * y0 + (3.0 * x**2 - 4.0 * x + 1.0) * dy0
            + (6.0 * x - 6.0 * x**2) / h * y1 + (3.0 * x**2 - 2.0 * x) * dy1)


def _hermite_dd(y0, dy0, y1, dy1, h, x):
    return ((12.0 * x - 6.0) / h**2 * y0 + (6.0 * x - 4.0) / h * dy0
            + (6.0 - 12.0 * x) / h**2 * y1 + (6.0 * x - 2.0) / h * dy1)


class WorldlineHistory:
    """Growable sampled worldline for one particle.

    Single writer (the integrator) appends; readers interpolate between
    write phases. Packed node arrays are rebuilt lazily after appends.
    """

    def __init__(self, spec: ParticleSpec, c: float = 1.0):
        if not (c > 0.0):
            raise ValueError("speed of light must be positive")
        self.spec = spec
        self.c = float(c)
        # drift-flag and append-abort thresholds on |u.u - 1|; the harness
        # sets both from the config tolerances
        self.constraint_tol = CONSTRAINT_TOL
        self.hard_tol = HARD_TOL
        self._samples: list[WorldlineSample] = []
        self.flags: list[str] = []
        self._packed = None

    # -- construction -----------------------------------------------------

    def append(self, sample: WorldlineSample) -> None:
        if self._samples:
            last = self._samples[-1]
            if not (sample.t > last.t):
                raise NonMonotonicTime(
                    f"append at t={sample.t!r} does not advance past {last.t!r}")
            if not (sample.s > last.s):
                raise NonMonotonicTime(
                    f"append at s={sample.s!r} does not advance past {last.s!r}")
        norm_err = abs(_udot_u(sample.u) - 1.0)
        if norm_err > self.hard_tol:
            raise ConstraintViolation(
                f"|u.u - 1| = {norm_err:.3e} exceeds hard tolerance {self.hard_tol:.1e}")
        if norm_err > self.constraint_tol and "u-normalization-drift" not in self.flags:
            self.flags.append("u-normalization-drift")
        ua = abs(_udot_ua(sample.u, sample.a))
        if ua > self.constraint_tol * (1.0 + float(np.max(np.abs(sample.a)))) \
                and "u.a-orthogonality-drift" not in self.flags:
            self.flags.append("u.a-orthogonality-drift")
        ct = self.c * sample.t
        if abs(sample.r[0] - ct) > 1e-9 * (1.0 + abs(ct)):
            raise ConstraintViolation(
                f"r^0 = {sample.r[0]!r} does not equal c t = {ct!r}")
        if sample.r[0] != ct:
            # canonicalize so r^0 = c t holds bit-for-bit
            r = sample.r.copy()
            r[0] = ct
            sample = WorldlineSample(t=sample.t, s=sample.s, r=r,
                                     u=sample.u, a=sample.a)
        if not self._samples and float(np.max(np.abs(sample.a))) > 1e-12:
            # the inertial prehistory has a = 0; a jump here is legal but
            # marks the junction as only C^1
            self.flags.append("prehistory-curvature-jump")
        self._samples.append(sample)
        self._packed = None

    @classmethod
    def from_samples(cls, spec: ParticleSpec, samples,
                     c: float = 1.0) -> "WorldlineHistory":
        h = cls(spec, c=c)
        for smp in samples:
            h.append(smp)
        return h

    # -- bookkeeping -------------------------------------------------------

    def __len__(self):
        return len(self._samples)

    @property
    def samples(self):
        return tuple(self._samples)

    @property
    def t_first(self) -> float:
        return self._samples[0].t

    @property
    def t_latest(self) -> float:
        return self._samples[-1].t

    @property
    def s_latest(self) -> float:
        return self._samples[-1].s

    def _tables(self):
        if self._packed is None:
            ts = np.array([smp.t for smp in self._samples])
            ss = np.array([smp.s for smp in self._samples])
            rs = np.array([smp.r for smp in self._samples])
            us = np.array([smp.u for smp in self._samples])
            accs = np.array([smp.a for smp in self._samples])
            self._packed = _pack(ts, ss, rs, us, accs, self.c)
        return self._packed

    # -- queries -----------------------------------------------------------

    def state_at_time(self, t: float) -> WorldlineSample:
        if not self._samples:
            raise QueryBeyondPresent("history holds no samples")
        if t > self.t_latest:
            raise QueryBeyondPresent(
                f"query at t={t!r} is beyond latest stored t={self.t_latest!r}")
        if t < self.t_first:
            return self._prehistory_state(t)
        return _interp_state(self._tables(), t, self.c)

    def proper_time_of(self, t: float) -> float:
        return self.state_at_time(t).s

    def u_dotdot_at_time(self, t: float) -> np.ndarray:
        """Second proper-time derivative d^2 u / ds^2 of the interpolated u.

        Piecewise quadratic in t, accurate to O(h^2); used only by the
        asymptotic radiation-reaction term, which is itself a first-order
        approximation.
        """
        if not self._samples:
            raise QueryBeyondPresent("history holds no samples")
        if t > self.t_latest:
            raise QueryBeyondPresent(
                f"query at t={t!r} is beyond latest stored t={self.t_latest!r}")
        if t < self.t_first:
            return np.zeros(4)
        return _interp_udotdot(self._tables(), t, self.c)

    def _prehistory_state(self, t: float) -> WorldlineSample:
        first = self._samples[0]
        g0 = first.u[0]
        dt = t - first.t
        r = first.r + (self.c / g0) * first.u * dt
        r[0] = self.c * t
        s = first.s + (self.c / g0) * dt
        return WorldlineSample(t=float(t), s=float(s), r=r,
                               u=first.u.copy(), a=np.zeros(4))

    # -- export ------------------------------------------------------------

    def export_csv(self, path, comment: str | None = None) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if comment is not None:
                fh.write(f"# {comment}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_HEADER)
            for smp in self._samples:
                w.writerow([repr(float(smp.t)), repr(float(smp.s)),
                            *[repr(float(x)) for x in smp.r],
                            *[repr(float(x)) for x in smp.u],
                            *[repr(float(x)) for x in smp.a]])


def _pack(ts, ss, rs, us, accs, c):
    gammas = us[:, 0]
    drdt = c * us / gammas[:, None]
    dudt = accs * (c / gammas)[:, None]
    dsdt = c / gammas
    return {"t": ts, "s": ss, "r": rs, "u": us, "a": accs,
            "drdt": drdt, "dudt": dudt, "dsdt": dsdt,
            "samples": None}


def _locate(ts, t):
    k = int(np.searchsorted(ts, t, side="left"))
    if k < len(ts) and ts[k] == t:
        return k, None
    return None, k - 1


def _interp_state(tb, t, c):
    ts = tb["t"]
    k, seg = _locate(ts, t)
    if k is not None:
        return WorldlineSample(t=float(ts[k]), s=float(tb["s"][k]),
                               r=tb["r"][k].copy(), u=tb["u"][k].copy(),
                               a=tb["a"][k].copy())
    i = seg
    h = ts[i + 1] - ts[i]
    x = (t - ts[i]) / h
    r = _hermite(tb["r"][i], tb["drdt"][i], tb["r"][i + 1], tb["drdt"][i + 1], h, x)
    u = _hermite(tb["u"][i], tb["dudt"][i], tb["u"][i + 1], tb["dudt"][i + 1], h, x)
    s = _hermite(tb["s"][i], tb["dsdt"][i], tb["s"][i + 1], tb["dsdt"][i + 1], h, x)
    dudt = _hermite_d(tb["u"][i], tb["dudt"][i], tb["u"][i + 1], tb["dudt"][i + 1], h, x)
    a = (u[0] / c) * dudt
    r[0] = c * t
    return WorldlineSample(t=float(t), s=float(s), r=r, u=u, a=a)


def _interp_udotdot(tb, t, c):
    ts = tb["t"]
    k, seg = _locate(ts, t)
    if k is not None:
        if k == len(ts) - 1:
            k, seg = None, k - 1
        else:
            k, seg = None, k
    i = max(seg, 0)
    h = ts[i + 1] - ts[i]
    x = (t - ts[i]) / h
    u = _hermite(tb["u"][i], tb["dudt"][i], tb["u"][i + 1], tb["dudt"][i + 1], h, x)
    du = _hermite_d(tb["u"][i], tb["dudt"][i], tb["u"][i + 1], tb["dudt"][i + 1], h, x)
    ddu = _hermite_dd(tb["u"][i], tb["dudt"][i], tb["u"][i + 1], tb["dudt"][i + 1], h, x)
    g = u[0]
    dgdt = du[0]
    # d/ds = (gamma/c) d/dt applied twice to u
    return (g / c) ** 2 * ddu + (g / c) * (dgdt / c) * du


class ProvisionalView:
    """Read-only view of a history extended by a few provisional samples.

    The integrator attaches stage predictions at times beyond the base
    history so that delay kernels can be evaluated mid-step without
    mutating the underlying history. Provisional times must be strictly
    increasing and start after the base's latest node.
    """

    def __init__(self, base: WorldlineHistory, provisional) -> None:
        self.base = base
        self.spec = base.spec
        self.c = base.c
        prov = list(provisional)
        t_prev = base.t_latest
        for smp in prov:
            if not (smp.t > t_prev):
                raise NonMonotonicTime("provisional samples must advance time")
            t_prev = smp.t
        self._prov = prov
        tb = base._tables()
        ts = np.concatenate([tb["t"], [p.t for p in prov]])
        ss = np.concatenate([tb["s"], [p.s for p in prov]])
        rs = np.vstack([tb["r"], [p.r for p in prov]])
        us = np.vstack([tb["u"], [p.u for p in prov]])
        accs = np.vstack([tb["a"], [p.a for p in prov]])
        self._tb = _pack(ts, ss, rs, us, accs, base.c)

    @property
    def t_first(self) -> float:
        return self.base.t_first

    @property
    def t_latest(self) -> float:
        return float(self._tb["t"][-1])

    def state_at_time(self, t: float) -> WorldlineSample:
        if t > self.t_latest:
            raise QueryBeyondPresent(
                f"query at t={t!r} is beyond latest provisional t={self.t_latest!r}")
        if t < self.base.t_first:
            return self.base._prehistory_state(t)
        return _interp_state(self._tb, t, self.c)

    def proper_time_of(self, t: float) -> float:
        return self.state_at_time(t).s

    def u_dotdot_at_time(self, t: float) -> np.ndarray:
        if t > self.t_latest:
            raise QueryBeyondPresent(
                f"query at t={t!r} is beyond latest provisional t={self.t_latest!r}")
        if t < self.base.t_first:
            return np.zeros(4)
        return _interp_udotdot(self._tb, t, self.c)


# -- factories used by tests, demos and seeding -----------------------------

def inertial_history(spec: ParticleSpec, x0, v3, t0: float, t1: float,
                     n: int, c: float = 1.0, s0: float = 0.0) -> WorldlineHistory:
    """Uniformly sampled inertial worldline from t0 to t1 inclusive."""
    v = np.asarray(v3, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    b2 = float(v @ v) / c**2
    if b2 >= 1.0:
        raise ValueError("Superluminal velocity")
    g = 1.0 / np.sqrt(1.0 - b2)
    u = np.concatenate(([g], g * v / c))
    h = WorldlineHistory(spec, c=c)
    for t in np.linspace(t0, t1, n):
        s = s0 + (c / g) * (t - t0)
        h.append(sample_from_state(t, s, x0 + v * (t - t0), u, np.zeros(4), c))
    return h


def history_from_kinematics(spec: ParticleSpec, t_nodes, x_fn, v_fn, acc_fn,
                            c: float = 1.0, s0: float = 0.0) -> WorldlineHistory:
    """Sample a history from analytic position/velocity/acceleration callables.

    x_fn, v_fn, acc_fn map t to 3-vectors (position, dx/dt, d^2x/dt^2).
    Proper time is accumulated per segment by Simpson quadrature of
    c dt / gamma, which matches the interpolant's O(h^4) accuracy.
    """
    t_nodes = np.asarray(t_nodes, dtype=np.float64)
    h = WorldlineHistory(spec, c=c)
    s = s0

    def gamma_at(t):
        v = np.asarray(v_fn(t), dtype=np.float64)
        b2 = float(v @ v) / c**2
        if b2 >= 1.0:
            raise ValueError("Superluminal velocity")
        return 1.0 / np.sqrt(1.0 - b2)

    prev_t = None
    for t in t_nodes:
        v = np.asarray(v_fn(t), dtype=np.float64)
        w3 = np.asarray(acc_fn(t), dtype=np.float64)
        g = gamma_at(t)
        u = np.concatenate(([g], g * v / c))
        dgdt = g**3 * float(v @ w3) / c**2
        dudt = np.concatenate(([dgdt], (dgdt * v + g * w3) / c))
        a = (g / c) * dudt
        if prev_t is not None:
            gm = gamma_at(0.5 * (prev_t + t))
            gp = u[0]
            s += (c * (t - prev_t) / 6.0) * (1.0 / g_prev + 4.0 / gm + 1.0 / gp)
        h.append(sample_from_state(t, s, np.asarray(x_fn(t), dtype=np.float64),
                                   u, a, c))
        prev_t = t
        g_prev = g
    return h
