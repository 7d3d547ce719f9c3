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
arbitrarily far into the past. staged(histories, rows) writes one
provisional node per history into its first capacity row for the length
of a with block (an RK stage), so there is one history class and one
query path.

Every query is an array query: gather(histories, src, ts) finds the
nodes of each source with one searchsorted over its times and then
evaluates all M states in one broadcasting pass (_evaluate);
states_at and state_at_time are gathers over one history.

write_table and read_table hold the one CSV table format of the package:
every table it writes or reads, node tables included, goes through them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass

import numpy as np

CONSTRAINT_TOL = 1e-9
HARD_TOL = 1e-6

CSV_HEADER = ["t", "s", "r0", "r1", "r2", "r3",
              "u0", "u1", "u2", "u3", "a0", "a1", "a2", "a3"]


def write_table(path, header, rows, comment: str | None = None) -> None:
    """Write a CSV table: a "# comment" line when given, the header, then
    one line per row, each ended by "\n". A string cell is written as it
    is, any other as repr(float(v)), which reads back to the same float.
    Rows are written one at a time, never joined into one string. The
    parent directory is made if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([v if isinstance(v, str) else repr(float(v))
                               for v in row]) + "\n")


def read_table(path) -> tuple[list, list]:
    """(header, lines) of a CSV table: the header's column names and the
    data lines, stripped but not split into cells; blank lines and lines
    starting with "#" are skipped. A table with no header reads ([], [])."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    return (lines[0].split(","), lines[1:]) if lines else ([], [])


# a history packs its node times into _t and the rest of each node into
# one row of _nodes: s, r, u and a (CSV_HEADER order without t), then the
# Hermite slopes ds/dt, dr/dt and du/dt, so the interpolated values
# (s, r, u) and their slopes are two contiguous blocks, _Y and _DY
_S, _R, _U, _A = 0, slice(1, 5), slice(5, 9), slice(9, 13)
_DS, _DR, _DU = 13, slice(14, 18), slice(18, 22)
_Y, _DY = slice(0, 9), slice(13, 22)
_WIDTH = 22
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
    """One node (t, s, r, u, a), or M of them as stacked arrays (what a
    gather returns); checked where it enters a history."""

    t: float
    s: float
    r: np.ndarray
    u: np.ndarray
    a: np.ndarray

    def take(self, idx) -> "WorldlineSample":
        """Rows idx of a sample whose fields are stacked arrays."""
        return WorldlineSample(self.t[idx], self.s[idx], self.r[idx], self.u[idx],
                               self.a[idx])


def _sample_row(sample: WorldlineSample) -> np.ndarray:
    """A sample as one float64 node table row in CSV_HEADER column order."""
    row = np.concatenate([np.ravel(x) for x in (sample.t, sample.s, sample.r, sample.u,
                                                sample.a)], dtype=np.float64)
    if row.shape != (len(CSV_HEADER),):
        raise ValueError("r, u and a must be four-vectors")
    return row


def _checked_vectors(table, checks=()) -> None:
    """Raise the first failure of a node table, in row order and then in
    check order: every entry finite (t, s, r, u, a in turn), then each
    (mask of failing rows, row -> exception) pair of checks."""
    finite = np.isfinite(table)
    ok = finite.all(axis=1)
    for mask, _ in checks:
        ok &= ~mask
    if np.count_nonzero(ok) == len(ok):
        return

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
    """Hermite slopes ds/dt = c / gamma, dr/dt = c u / gamma and
    du/dt = a c / gamma of one node or of a block of nodes."""
    g = u[..., :1]
    return c / u[..., 0], c * u / g, a * (c / g)


# cubic Hermite interpolation on the unit interval; powers are written
# as products, so a query rounds the same way whatever its batch
def _powers(x):
    x2 = x * x
    return x2, 3.0 * x2, x2 * x


def _hermite(y0, dy0, y1, dy1, h, x):
    x2, t3, x3 = _powers(x)
    return ((2.0 * x3 - t3 + 1.0) * y0 + h * (x3 - 2.0 * x2 + x) * dy0
            + (-2.0 * x3 + t3) * y1 + h * (x3 - x2) * dy1)


def _hermite_d(y0, dy0, y1, dy1, h, x):
    x2, t3, _ = _powers(x)
    s6x2, s6x = 6.0 * x2, 6.0 * x
    return ((s6x2 - s6x) / h * y0 + (t3 - 4.0 * x + 1.0) * dy0
            + (s6x - s6x2) / h * y1 + (t3 - 2.0 * x) * dy1)


def _hermite_dd(y0, dy0, y1, dy1, h, x):
    return ((12.0 * x - 6.0) / (h * h) * y0 + (6.0 * x - 4.0) / h * dy0
            + (6.0 - 12.0 * x) / (h * h) * y1 + (6.0 * x - 2.0) / h * dy1)


class WorldlineHistory:
    """Growable sampled worldline for one particle.

    Single writer (the integrator) appends; readers interpolate between
    write phases. Every node is one entry of _t and one row of _nodes;
    rows at or beyond len(self) are capacity, never read.
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
        self._t = np.empty(_INITIAL_ROWS)
        self._nodes = np.empty((_INITIAL_ROWS, _WIDTH))

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
        t_prev = np.concatenate(([self._t[n - 1] if n else -np.inf], t[:-1]))
        s_prev = np.concatenate(([self._nodes[n - 1, _S] if n else -np.inf], s[:-1]))
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
        new = [f for f, hit in hits.items() if np.count_nonzero(hit) and f not in self.flags]
        self.flags += sorted(new, key=lambda f: np.argmax(hits[f]))
        self._reserve(n + m)
        self._t[n:n + m] = t
        self._nodes[n:n + m, :_A.stop] = tab[:, 1:]
        self._nodes[n:n + m, _R.start] = ct  # canonicalize so r^0 = c t holds bit-for-bit
        self._n = n + m

    def _reserve(self, rows: int) -> None:
        """Double the capacity until it holds rows nodes."""
        cap = len(self._t)
        while cap < rows:
            cap *= 2
        if cap > len(self._t):
            # rows beyond _n are capacity, so resize's repeats are never read
            self._t = np.resize(self._t, cap)
            self._nodes = np.resize(self._nodes, (cap, _WIDTH))

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
        return np.column_stack((self._t[:n], self._nodes[:n, :_A.stop]))

    @property
    def t_first(self) -> float:
        return float(self._t[:self._n][0])

    @property
    def t_latest(self) -> float:
        return float(self._t[:self._n][-1])

    # -- node lookup ---------------------------------------------------------

    def _take(self, k):
        """(t, rows) of the nodes k (an index array), rows with their
        Hermite slopes. Indices are clipped into the store, so one past
        the latest node reads a capacity row (or, outside a staged block,
        the stale node a block left there): callers only do so for the
        node after a query that sits on the latest node, which is never
        read."""
        lo, hi = self._n_slopes, self._n
        if lo < hi:
            rows = self._nodes[lo:hi]
            rows[:, _DS], rows[:, _DR], rows[:, _DU] = _slopes(rows[:, _U], rows[:, _A], self.c)
            self._n_slopes = hi
        return self._t.take(k, mode="clip"), self._nodes.take(k, axis=0, mode="clip")

    def _after(self, ts):
        """Index of the first node after each query time, len(self) at or
        after the latest; raises QueryBeyondPresent past the latest."""
        n = self._n
        if not n:
            raise QueryBeyondPresent("history holds no samples")
        times = self._t[:n]
        _check_present(ts, times[n - 1])
        return times.searchsorted(ts, side="right")

    # -- queries -----------------------------------------------------------

    def _lookup(self, ts):
        """(t0, p, t1, q): for each query time, the node at or before it
        (the first node before the history) and the node after it, whose
        row is read only inside a segment."""
        i = self._after(ts)
        m = len(ts)
        t, rows = self._take(np.concatenate((i - 1, i)))
        return t[:m], rows[:m], t[m:], rows[m:]

    def states_at(self, ts) -> WorldlineSample:
        """States at many times as one WorldlineSample of stacked arrays."""
        return gather((self,), 0, ts)

    def state_at_time(self, t: float) -> WorldlineSample:
        ts = np.array([t], dtype=np.float64)
        b = _evaluate(ts, *self._lookup(ts), self.c)
        return WorldlineSample(float(b.t[0]), float(b.s[0]), b.r[0], b.u[0], b.a[0])

    def u_dotdot_at_time(self, t: float) -> np.ndarray:
        """Second proper-time derivative d^2 u / ds^2 of the interpolated u.

        Piecewise quadratic in t, accurate to O(h^2); used only by the
        asymptotic radiation-reaction term, which is itself a first-order
        approximation. At a node the segment starting there is used, at
        the latest node the one ending there.
        """
        ts = np.array([t], dtype=np.float64)
        i = int(self._after(ts)[0]) - 1
        if t < self.t_first:
            return np.zeros(4)
        if i == len(self) - 1:
            i -= 1
        if i < 0:
            raise QueryBeyondPresent("u_dotdot needs a segment; history holds one node")
        t01, rows = self._take(np.array([i, i + 1]))
        return _segment_udotdot(t01[0], rows[0], t01[1], rows[1], t, self.c)

    # -- export ------------------------------------------------------------

    def export_csv(self, path, comment: str | None = None) -> None:
        """Write the nodes as a CSV_HEADER table (see write_table)."""
        write_table(path, CSV_HEADER, self.table.tolist(), comment)


def gather(histories, src, ts) -> WorldlineSample:
    """States of histories[src[m]] at ts[m] for every m, as one
    WorldlineSample of stacked arrays (t, s (M,); r, u, a (M, 4)).

    One node lookup per distinct source, then one evaluation of all M
    states. src may be one index for all times; sorted indices skip a
    permutation. The histories share one light speed. An object that is
    not a WorldlineHistory is asked through its own state_at_time, one
    time at a time, and its states enter the evaluation as nodes.
    """
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    src = np.asarray(src)
    h = histories[src if src.ndim == 0 else src[0]]
    if isinstance(h, WorldlineHistory) and (
            src.ndim == 0 or np.count_nonzero(src != src[0]) == 0):
        return _evaluate(ts, *h._lookup(ts), h.c)
    src = np.broadcast_to(src, ts.shape)
    ordered = np.count_nonzero(src[1:] < src[:-1]) == 0
    order = None if ordered else np.argsort(src, kind="stable")
    if order is not None:
        src, ts = src[order], ts[order]
    cuts = np.flatnonzero(src[1:] != src[:-1]) + 1
    c = histories[src[0]].c
    parts = []
    for a, b in zip((0, *cuts.tolist()), (*cuts.tolist(), len(ts))):
        h, tb = histories[src[a]], ts[a:b]
        if h.c != c:
            raise ValueError("gathered histories must share one light speed")
        if isinstance(h, WorldlineHistory):
            parts.append(h._lookup(tb))
        else:
            rows = np.zeros((b - a, _WIDTH))
            for row, x in zip(rows, map(h.state_at_time, tb.tolist())):
                row[:_A.stop] = np.hstack((x.s, x.r, x.u, x.a))
            parts.append((tb, rows, tb, rows))
    out = _evaluate(ts, *(np.concatenate(x) for x in zip(*parts)), c)
    if order is None:
        return out
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return out.take(back)


def _evaluate(t, t0, p, t1, q, c: float) -> WorldlineSample:
    """The one interpolation formula: states at times t from the node
    (t0, p) at or before each time and the node (t1, q) after it, as node
    rows of _nodes. A time on a node returns that node, a time before
    the first node its inertial extension, any other the cubic Hermite
    interpolant of the segment, with a from the derivative of u."""
    seg = t > t0
    n_seg = np.count_nonzero(seg)
    if n_seg == len(t):
        y, a = _segment(t, t0, p, t1, q, c)
    else:
        y, a = p[:, _Y].copy(), p[:, _A].copy()
        if n_seg:
            y[seg], a[seg] = _segment(t[seg], t0[seg], p[seg], t1[seg], q[seg], c)
        pre = t < t0
        if np.count_nonzero(pre):
            # inertial extension of the first node
            dt, pp = (t - t0)[pre], p[pre]
            v = c / pp[:, _U.start]
            y[pre, _R] = pp[:, _R] + v[:, None] * pp[:, _U] * dt[:, None]
            y[pre, _S] = pp[:, _S] + v * dt
            a[pre] = 0.0
    r = y[:, _R]
    r[:, 0] = c * t
    return WorldlineSample(t=t, s=y[:, _S], r=r, u=y[:, _U], a=a)


def _segment(t, t0, p, t1, q, c: float):
    """(s, r, u) as one (M, 9) block and a of times inside segments."""
    h = t1 - t0
    x = (t - t0) / h
    # one segment's basis weights are plain floats: the same arithmetic
    # (so the same bits) at a fraction of the array overhead
    h, x = (h.item(), x.item()) if len(t) == 1 else (h[:, None], x[:, None])
    y = _hermite(p[:, _Y], p[:, _DY], q[:, _Y], q[:, _DY], h, x)
    du = _hermite_d(p[:, _U], p[:, _DU], q[:, _U], q[:, _DU], h, x)
    return y, (y[:, _U.start, None] / c) * du


def _segment_udotdot(t0, p, t1, q, t, c) -> np.ndarray:
    h = t1 - t0
    x = (t - t0) / h
    y = (p[_U], p[_DU], q[_U], q[_DU], h, x)
    u, du, ddu = _hermite(*y), _hermite_d(*y), _hermite_dd(*y)
    # d/ds = (gamma/c) d/dt applied twice to u
    return (u[0] / c) ** 2 * ddu + (u[0] / c) * (du[0] / c) * du


@contextmanager
def staged(histories, rows):
    """Stage one provisional node per history (an RK stage prediction)
    for the duration of a with block.

    rows is an (N, 14) block in CSV_HEADER order, row i for histories[i].
    Every row must be finite and advance past its history's latest node;
    the first failure, in row order, is raised before anything is
    written. Row i is then written into the capacity row after history
    i's latest node and counted as a node, so every query reads it as the
    latest one. No tolerance is checked and no flag raised. On exit,
    normal or not, the staged nodes are removed again.
    """
    hs = list(histories)
    tab = np.asarray(rows, dtype=np.float64)
    if tab.shape != (len(hs), len(CSV_HEADER)):
        raise ValueError(f"staged rows need shape ({len(hs)}, {len(CSV_HEADER)}), "
                         f"got {tab.shape}")
    latest = np.array([h.t_latest for h in hs])
    _checked_vectors(tab, ((~(tab[:, 0] > latest), lambda i: NonMonotonicTime(
        "provisional sample must advance time")),))
    for h, row in zip(hs, tab):
        h._reserve(h._n + 1)
        h._t[h._n] = row[0]
        h._nodes[h._n, :_A.stop] = row[1:]
        h._n += 1
    try:
        yield
    finally:
        for h in hs:
            h._n -= 1
            h._n_slopes = min(h._n_slopes, h._n)


def _check_present(ts, t_latest) -> None:
    ok = ts <= t_latest  # also False for a NaN time
    if np.count_nonzero(ok) < len(ts):
        raise QueryBeyondPresent(f"query at t={ts[~ok][0].item()!r} is beyond "
                                 f"latest stored t={float(t_latest)!r}")


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
