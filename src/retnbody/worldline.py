"""Particle specs and sampled worldline histories with dense interpolation.

A history stores time-ordered nodes (t, s, r, u, a) for one particle:
  t   coordinate time
  s   proper time in length units, accumulated as ds = c dt / gamma
  r   contravariant position, r^0 = c t exactly
  u   dimensionless four-velocity (gamma, gamma*beta), u.u = 1 on shell
  a   du/ds, units 1/length, orthogonal to u on shell

The nodes live in packed arrays that double in capacity when full. All
of them enter through extend(table), a checked block write of (m, 14)
rows in CSV_HEADER order (the layout export_csv writes); append is a
one-row extend. copy() and transformed() (a Poincare map) work on whole
columns. Queries between nodes use cubic Hermite interpolation of r
(with the node velocity dr/dt = c u / gamma as derivative data), of u
(with du/dt = a c / gamma), and of s (with ds/dt = c / gamma); these
slopes are stored beside the nodes, filled in bulk on the first query
after a write. The acceleration returned at a query point is recovered
from the u-interpolant so it coincides with the stored a at the nodes.
For t at or before the first node the history falls back to an exact
analytic inertial extension of that node, so delay-root searches can look
arbitrarily far into the past. A ProvisionalView adds one provisional
node to a base history it pins, without copying it.
"""

from __future__ import annotations

import csv
from copy import deepcopy
from dataclasses import dataclass

import numpy as np

CONSTRAINT_TOL = 1e-9
HARD_TOL = 1e-6

CSV_HEADER = ["t", "s", "r0", "r1", "r2", "r3",
              "u0", "u1", "u2", "u3", "a0", "a1", "a2", "a3"]

# packed node columns (attribute, row shape); the last three are the
# Hermite slopes dr/dt, du/dt and ds/dt
_COLUMNS = (("_t", ()), ("_s", ()), ("_r", (4,)), ("_u", (4,)), ("_a", (4,)),
            ("_drdt", (4,)), ("_dudt", (4,)), ("_dsdt", ()))
_INITIAL_ROWS = 16


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
    """One node (t, s, r, u, a); checked where it enters a history."""

    t: float
    s: float
    r: np.ndarray
    u: np.ndarray
    a: np.ndarray


def _sample_row(sample: WorldlineSample) -> np.ndarray:
    """A sample as one float64 node table row in CSV_HEADER column order."""
    row = np.hstack((sample.t, sample.s, sample.r, sample.u, sample.a), dtype=np.float64)
    if row.shape != (len(CSV_HEADER),):
        raise ValueError("r, u and a must be four-vectors")
    return row


def _checked_vectors(table, checks=()) -> None:
    """Raise the first failure of a node table, in row order and then in
    check order: every entry finite (t, s, r, u, a in turn), then each
    (mask of failing rows, row -> exception) pair of checks."""
    finite = np.isfinite(table)

    def nonfinite(i):
        name = CSV_HEADER[int(np.argmin(finite[i]))][0]
        kind = "number" if name in "ts" else "four-vector"
        return ValueError(f"{name} must be a finite {kind}")

    checks = [(~finite.all(axis=1), nonfinite), *checks]
    fails = np.array([mask for mask, _ in checks])
    if fails.any():
        i = int(np.argmax(fails.any(axis=0)))
        raise checks[int(np.argmax(fails[:, i]))][1](i)


def _slopes(u, a, c):
    """Hermite slopes dr/dt = c u / gamma, du/dt = a c / gamma and
    ds/dt = c / gamma of one node or of a block of nodes."""
    g = u[..., :1]
    return c * u / g, a * (c / g), c / u[..., 0]


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
    write phases. Every node is one row of the packed columns in
    _COLUMNS; rows at or beyond len(self) are capacity, never read.
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
        self.flags: list[str] = []
        self._n = 0         # rows in use
        self._n_slopes = 0  # rows whose Hermite slopes are filled
        for name, shape in _COLUMNS:
            setattr(self, name, np.empty((_INITIAL_ROWS,) + shape))

    # -- construction -----------------------------------------------------

    def extend(self, table) -> None:
        """Append (m, 14) node rows in CSV_HEADER order as one block.

        Each row must be finite, advance t and s, keep |u.u - 1| within
        hard_tol and have r^0 = c t (stored exactly). Nothing is committed
        unless every row passes; the first failure, in row order and then
        in that check order, is raised. Flags follow the row order.
        """
        tab = np.atleast_2d(np.asarray(table, dtype=np.float64))
        if tab.ndim != 2 or tab.shape[1] != len(CSV_HEADER):
            raise ValueError(f"node rows need {len(CSV_HEADER)} columns, got {tab.shape}")
        m, n = len(tab), self._n
        t, s, r, u, a = tab[:, 0], tab[:, 1], tab[:, 2:6], tab[:, 6:10], tab[:, 10:14]
        # t and s of the node before each row
        t_prev = np.r_[self._t[n - 1] if n else -np.inf, t][:m]
        s_prev = np.r_[self._s[n - 1] if n else -np.inf, s][:m]
        ct = self.c * t
        norm_err = np.abs(u[:, 0] * u[:, 0] - np.sum(u[:, 1:] ** 2, axis=1) - 1.0)
        _checked_vectors(tab, (
            (~(t > t_prev), lambda i: NonMonotonicTime(
                f"append at t={t[i].item()!r} does not advance past {t_prev[i].item()!r}")),
            (~(s > s_prev), lambda i: NonMonotonicTime(
                f"append at s={s[i].item()!r} does not advance past {s_prev[i].item()!r}")),
            (norm_err > self.hard_tol, lambda i: ConstraintViolation(
                f"|u.u - 1| = {norm_err[i]:.3e} exceeds hard tolerance "
                f"{self.hard_tol:.1e}")),
            (np.abs(r[:, 0] - ct) > 1e-9 * (1.0 + np.abs(ct)), lambda i: ConstraintViolation(
                f"r^0 = {r[i, 0].item()!r} does not equal c t = {ct[i].item()!r}")),
        ))
        a_max = np.max(np.abs(a), axis=1)
        ua = np.abs(u[:, 0] * a[:, 0] - np.sum(u[:, 1:] * a[:, 1:], axis=1))
        hits = {"u-normalization-drift": norm_err > self.constraint_tol,
                "u.a-orthogonality-drift": ua > self.constraint_tol * (1.0 + a_max),
                # a != 0 at the very first node marks a C^1-only prehistory junction
                "prehistory-curvature-jump": (np.arange(n, n + m) == 0) & (a_max > 1e-12)}
        new = [f for f, hit in hits.items() if hit.any() and f not in self.flags]
        self.flags += sorted(new, key=lambda f: np.argmax(hits[f]))
        cap = len(self._t)
        while cap < n + m:
            cap *= 2
        if cap > len(self._t):
            for name, shape in _COLUMNS:
                # rows beyond n are capacity, so resize's repeats are never read
                setattr(self, name, np.resize(getattr(self, name), (cap,) + shape))
        self._t[n:n + m], self._s[n:n + m] = t, s
        self._r[n:n + m], self._u[n:n + m], self._a[n:n + m] = r, u, a
        self._r[n:n + m, 0] = ct  # canonicalize so r^0 = c t holds bit-for-bit
        self._n = n + m

    def append(self, sample: WorldlineSample) -> None:
        """Add one node: a one-row extend."""
        self.extend(_sample_row(sample))

    def copy(self, spec: ParticleSpec | None = None) -> "WorldlineHistory":
        """Independent history with the same nodes, c, tolerances and
        flags, for spec when given; nothing is re-validated."""
        out = deepcopy(self)
        out.spec = self.spec if spec is None else spec
        return out

    def transformed(self, lam, shift4) -> "WorldlineHistory":
        """The worldline under the Poincare map r -> lam r + shift4,
        u -> lam u, a -> lam a, with t = r^0 / c and proper times kept;
        built through extend under this history's tolerances."""
        lam_t = np.asarray(lam, dtype=np.float64).T
        tab = self.table
        r = tab[:, 2:6] @ lam_t + np.asarray(shift4, dtype=np.float64)
        out = WorldlineHistory(self.spec, c=self.c)
        out.hard_tol, out.constraint_tol = self.hard_tol, self.constraint_tol
        out.extend(np.column_stack((r[:, 0] / self.c, tab[:, 1], r,
                                    tab[:, 6:10] @ lam_t, tab[:, 10:14] @ lam_t)))
        return out

    # -- bookkeeping -------------------------------------------------------

    def __len__(self):
        return self._n

    @property
    def samples(self):
        """Fresh copies of the nodes, oldest first."""
        tab = self.table
        return tuple(map(WorldlineSample, tab[:, 0].tolist(), tab[:, 1].tolist(),
                         tab[:, 2:6], tab[:, 6:10], tab[:, 10:14]))

    @property
    def table(self) -> np.ndarray:
        """Fresh (len, 14) array of the nodes in CSV_HEADER column order,
        the layout extend takes."""
        n = self._n
        return np.column_stack((self._t[:n], self._s[:n], self._r[:n],
                                self._u[:n], self._a[:n]))

    @property
    def t_first(self) -> float:
        return float(self._t[:self._n][0])

    @property
    def t_latest(self) -> float:
        return float(self._t[:self._n][-1])

    # -- node lookup: the only part a ProvisionalView overrides -------------

    def _row(self, i: int):
        """Node i as (t, s, r, u, a, dr/dt, du/dt, ds/dt)."""
        lo, hi = self._n_slopes, self._n
        if lo < hi:
            self._drdt[lo:hi], self._dudt[lo:hi], self._dsdt[lo:hi] = _slopes(
                self._u[lo:hi], self._a[lo:hi], self.c)
            self._n_slopes = hi
        return (self._t[i], self._s[i], self._r[i], self._u[i], self._a[i],
                self._drdt[i], self._dudt[i], self._dsdt[i])

    def _locate(self, t: float):
        """(k, None) when t is node k, else (None, i) with t inside segment
        i; the caller guarantees t_first <= t <= t_latest."""
        n = self._n
        k = int(np.searchsorted(self._t[:n], t, side="left"))
        if k < n and self._t[k] == t:
            return k, None
        return None, k - 1

    # -- queries -----------------------------------------------------------

    def _check_present(self, t: float) -> None:
        if not len(self):
            raise QueryBeyondPresent("history holds no samples")
        if not (t <= self.t_latest):  # also rejects a NaN time
            raise QueryBeyondPresent(
                f"query at t={t!r} is beyond latest stored t={self.t_latest!r}")

    def state_at_time(self, t: float) -> WorldlineSample:
        self._check_present(t)
        if t < self.t_first:
            return self._prehistory_state(t)
        k, i = self._locate(t)
        if k is not None:
            t_k, s_k, r, u, a = self._row(k)[:5]
            return WorldlineSample(float(t_k), float(s_k), r.copy(), u.copy(), a.copy())
        return _segment_state(self._row(i), self._row(i + 1), t, self.c)

    def u_dotdot_at_time(self, t: float) -> np.ndarray:
        """Second proper-time derivative d^2 u / ds^2 of the interpolated u.

        Piecewise quadratic in t, accurate to O(h^2); used only by the
        asymptotic radiation-reaction term, which is itself a first-order
        approximation. At a node the segment starting there is used, at
        the latest node the one ending there.
        """
        self._check_present(t)
        if t < self.t_first:
            return np.zeros(4)
        k, i = self._locate(t)
        if k is not None:
            i = k - 1 if k == len(self) - 1 else k
        if i < 0:
            raise QueryBeyondPresent("u_dotdot needs a segment; history holds one node")
        return _segment_udotdot(self._row(i), self._row(i + 1), t, self.c)

    def _prehistory_state(self, t: float) -> WorldlineSample:
        t0, s0, r0, u0 = self._row(0)[:4]
        g0 = u0[0]
        dt = t - t0
        r = r0 + (self.c / g0) * u0 * dt
        r[0] = self.c * t
        s = s0 + (self.c / g0) * dt
        return WorldlineSample(float(t), float(s), r, u0.copy(), np.zeros(4))

    # -- export ------------------------------------------------------------

    def export_csv(self, path, comment: str | None = None) -> None:
        table = self.table
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if comment is not None:
                fh.write(f"# {comment}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_HEADER)
            for row in table.tolist():
                w.writerow([repr(x) for x in row])


def _segment_state(p, q, t, c) -> WorldlineSample:
    t0, s0, r0, u0, _, drdt0, dudt0, dsdt0 = p
    t1, s1, r1, u1, _, drdt1, dudt1, dsdt1 = q
    h = t1 - t0
    x = (t - t0) / h
    r = _hermite(r0, drdt0, r1, drdt1, h, x)
    u = _hermite(u0, dudt0, u1, dudt1, h, x)
    s = _hermite(s0, dsdt0, s1, dsdt1, h, x)
    a = (u[0] / c) * _hermite_d(u0, dudt0, u1, dudt1, h, x)
    r[0] = c * t
    return WorldlineSample(t=float(t), s=float(s), r=r, u=u, a=a)


def _segment_udotdot(p, q, t, c) -> np.ndarray:
    t0, _, _, u0, _, _, dudt0, _ = p
    t1, _, _, u1, _, _, dudt1, _ = q
    h = t1 - t0
    x = (t - t0) / h
    u = _hermite(u0, dudt0, u1, dudt1, h, x)
    du = _hermite_d(u0, dudt0, u1, dudt1, h, x)
    ddu = _hermite_dd(u0, dudt0, u1, dudt1, h, x)
    # d/ds = (gamma/c) d/dt applied twice to u
    return (u[0] / c) ** 2 * ddu + (u[0] / c) * (du[0] / c) * du


class ProvisionalView(WorldlineHistory):
    """Read-only history extended by one provisional node (an RK stage
    prediction or a snapshot's continuation) without mutating the base.
    Nothing is copied: only the node lookup and table are overridden. The
    base's length and latest time are pinned when the view is built, so
    nodes appended to the base later stay invisible. extend (and so
    append) raises TypeError."""

    def __init__(self, base: WorldlineHistory, tail: WorldlineSample) -> None:
        row = _sample_row(tail)
        self.base, self.spec, self.c = base, base.spec, base.c
        self.hard_tol, self.constraint_tol = base.hard_tol, base.constraint_tol
        self.flags = list(base.flags)
        self._nb, self._t_base = len(base), base.t_latest
        advances = row[:1] > self._t_base
        _checked_vectors(row[None], ((~advances, lambda i: NonMonotonicTime(
            "provisional sample must advance time")),))
        u, a = row[6:10], row[10:14]
        self._tail = (row[0], row[1], row[2:6], u, a, *_slopes(u, a, self.c))

    def extend(self, table) -> None:
        raise TypeError("a ProvisionalView is read-only")

    def __len__(self):
        return self._nb + 1

    @property
    def table(self) -> np.ndarray:
        return np.vstack((self.base.table[:self._nb], np.hstack(self._tail[:5])))

    @property
    def t_first(self) -> float:
        return self.base.t_first

    @property
    def t_latest(self) -> float:
        return float(self._tail[0])

    def _row(self, i: int):
        return self._tail if i == self._nb else self.base._row(i)

    def _locate(self, t: float):
        if t <= self._t_base:
            return self.base._locate(t)
        nb = self._nb
        return (nb, None) if t == self._tail[0] else (None, nb - 1)


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
    ts = np.linspace(t0, t1, n)
    h = WorldlineHistory(spec, c=c)
    h.extend(np.column_stack((ts, s0 + (c / g) * (ts - t0), c * ts,
                              x0 + (ts - t0)[:, None] * v, np.tile(u, (n, 1)),
                              np.zeros((n, 4)))))
    return h


def history_from_kinematics(spec: ParticleSpec, t_nodes, x_fn, v_fn, acc_fn,
                            c: float = 1.0, s0: float = 0.0) -> WorldlineHistory:
    """Sample a history from analytic position/velocity/acceleration callables.

    x_fn, v_fn, acc_fn map t to 3-vectors (position, dx/dt, d^2x/dt^2).
    Proper time is accumulated per segment by Simpson quadrature of
    c dt / gamma, which matches the interpolant's O(h^4) accuracy.
    """
    t_nodes = np.asarray(t_nodes, dtype=np.float64)
    rows = []
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
        rows.append(np.concatenate(([t, s, c * t], x_fn(t), u, a)))
        prev_t = t
        g_prev = g
    h = WorldlineHistory(spec, c=c)
    h.extend(np.reshape(rows, (-1, len(CSV_HEADER))))
    return h
