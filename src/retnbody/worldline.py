"""Particle specs and sampled worldline histories with dense interpolation.

A history stores time-ordered nodes (t, s, r, u, a) for one particle:
  t   coordinate time
  s   proper time in length units, accumulated as ds = c dt / gamma
  r   contravariant position, r^0 = c t exactly
  u   dimensionless four-velocity (gamma, gamma*beta), u.u = 1 on shell
  a   du/ds, units 1/length, orthogonal to u on shell

The nodes of one or more histories live in one store, a HistoryBank: one
node block and one sorted lookup key whose entries are (history slot,
node time), each history owning a run of rows with spare capacity, all
of one light speed. A WorldlineHistory is a view of its own run. A
history made on its own has a store of its own; copy_histories copies
histories into a new one, which is how dynamics.seed builds a system.
A set of histories read or written together lives in one store and
names each history once: every read and write finds its store and
slots through one membership check (_store_of), which raises ValueError
before anything is read or written otherwise; a set that is the whole
store in slot order (a system's histories) gets the store's own
read-only slot array, made with the store.
Nodes enter as checked block writes: extend(table) takes (m, 14)
rows in CSV_HEADER order (the layout export_csv writes) for one
history, commit(histories, rows) one row per history, and append is a
one-row extend. All three share one check path (_check_rows), which
reads each row's predecessor from the store's record of every
history's latest (t, s) and makes one array pass per check, whatever
the number of rows; commit's failures, like staged's, name their
history as .particle. copy() and transformed() (a Poincare map) work
on whole columns. Queries between nodes use cubic Hermite interpolation
of r (with the node velocity dr/dt = c u / gamma as derivative data),
of u (with du/dt = a c / gamma), and of s (with ds/dt = c / gamma);
these slopes are stored beside the nodes when they are written, and
the value and t-derivative weights of a segment share one set of
powers (_weights). The
acceleration returned at a query point is recovered from the
u-interpolant so it coincides with the stored a at the nodes. For t at
or before the first node the history falls back to an exact analytic
inertial extension of that node, so delay-root searches can look
arbitrarily far into the past. staged(histories, rows) holds one
provisional node per history for the length of a with block (an RK
stage) and writes it into the spare row after the history's latest
node when a query first reads it, so there is one history class and
one query path, and a stage no query reads writes nothing; no node is
written to a store while a stage is open on it.

Every query is an array query: gather(histories, src, ts) finds the
nodes of any mix of sources with one searchsorted over the key of their
store and then evaluates all M states in one broadcasting pass
(_evaluate). A query reads only the two nodes around it, so its cost
grows with the log of the store's length and no more.
states_at and state_at_time are the same lookup for one history, and
u_dotdot(histories, src, ts) (u'' for the asymptotic self-force) too.
A delay-root batch reads its events through _read, the same lookup
handing back the segment each state was read from (_Segment: its two
node rows and du/dt there). A later iterate strictly inside that
segment is read off its rows with no lookup, and so is u'' at an event
strictly inside one (_read_udotdot); u_dotdot looks up only an event on
a node or before the first node. Both give the bits of a fresh lookup.

write_table and read_table hold the one CSV table format of the package:
every table it writes goes through write_table, and every table it reads
through read_table except a prehistory table, which harness streams from
the file into numpy's C reader after finding its header by the same
rule (_table_lines). A float table is written in blocks of rows, one
repr per cell; export_csv reads those blocks straight from the store.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CONSTRAINT_TOL = 1e-9
HARD_TOL = 1e-6

CSV_HEADER = ["t", "s", "r0", "r1", "r2", "r3",
              "u0", "u1", "u2", "u3", "a0", "a1", "a2", "a3"]


_BLOCK_ROWS = 1024  # rows of a float table formatted per write


def write_table(path, header, rows, comment: str | None = None) -> None:
    """Write a CSV table: a "# comment" line when given, the header, then
    one line per row, each ended by "\n". The parent directory is made if
    it is missing.

    rows is an iterable of rows or of row blocks (2-D float arrays); an
    array alone is one block. A block is written _BLOCK_ROWS lines at a
    time, each batch formatted as one string, one repr per cell, with one
    write. A row is written with one write, a string cell as it is and
    any other as repr(float(v)). Either way a number is written as the
    repr of its float, which reads back to the same float.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if isinstance(rows, np.ndarray):
        rows = (rows,)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for item in rows:
            if isinstance(item, np.ndarray) and item.ndim == 2:
                block = item.astype(np.float64, copy=False)
                for i in range(0, len(block), _BLOCK_ROWS):
                    fh.write("".join([",".join(map(repr, row)) + "\n"
                                      for row in block[i:i + _BLOCK_ROWS].tolist()]))
            else:
                fh.write(",".join([v if isinstance(v, str) else repr(float(v))
                                   for v in item]) + "\n")


def read_table(path) -> tuple[list, list]:
    """(header, lines) of a CSV table: the header's column names and the
    data lines, stripped but not split into cells; blank lines and lines
    starting with "#" are skipped. A table with no header reads ([], [])."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(_table_lines(fh))
    return (lines[0].split(","), lines[1:]) if lines else ([], [])


def _table_lines(fh):
    """The lines of an open table that count: each stripped, skipping the
    blank ones and those starting with "#". The first is the header; the
    file is read no further than the lines taken."""
    return (s for s in map(str.strip, fh) if s and not s.startswith("#"))


# a store keeps each node time in its key and the rest of the node in
# one row of _nodes: s, r, u and a (CSV_HEADER order without t), then the
# Hermite slopes ds/dt, dr/dt and du/dt, so the interpolated values
# (s, r, u) and their slopes are two contiguous blocks, _Y and _DY
_S, _R, _U, _A = 0, slice(1, 5), slice(5, 9), slice(9, 13)
_DS, _DR, _DU = 13, slice(14, 18), slice(18, 22)
_Y, _DY = slice(0, 9), slice(13, 22)
_WIDTH = 22
_SPARE_ROWS = 16  # the fewest spare rows a run is laid out with


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


class WorldlineSample(NamedTuple):
    """One node (t, s, r, u, a), or M of them as stacked arrays (what a
    gather returns); checked where it enters a history. Immutable, and
    built as a tuple is: a gather builds one per call."""

    t: float
    s: float
    r: np.ndarray
    u: np.ndarray
    a: np.ndarray


class _Segment(NamedTuple):
    """The segment each of M states was read from (_evaluate with keep):
    its nodes (t0, p) and (t1, q), p and q rows of _nodes, and du/dt at
    the state. A state not read strictly inside a segment (on a node, or
    before the first node) has an empty one, t1 = t0, which serves no
    later read."""

    t0: np.ndarray
    p: np.ndarray
    t1: np.ndarray
    q: np.ndarray
    du: np.ndarray


def _sample_row(sample: WorldlineSample) -> np.ndarray:
    """A sample as one float64 node table row in CSV_HEADER column order."""
    if np.ndim(sample.t) or np.ndim(sample.s):
        raise ValueError("t and s must be numbers")
    if any(np.shape(x) != (4,) for x in (sample.r, sample.u, sample.a)):
        raise ValueError("r, u and a must be four-vectors")
    return np.concatenate(([sample.t, sample.s], sample.r, sample.u, sample.a),
                          dtype=np.float64)


def _first_failure(table, checks=()):
    """(row, exception) of the first failure of a node table, in row
    order and then in check order: every entry finite (t, s, r, u, a in
    turn), then each (mask of failing rows, row -> exception) pair of
    checks. A check need not fail a row with a non-finite entry, which
    fails first. None when every row passes."""
    finite = np.isfinite(table)
    if np.count_nonzero(finite) == finite.size:
        for mask, _ in checks:
            if np.count_nonzero(mask):
                break
        else:
            return None

    def nonfinite(i):
        name = CSV_HEADER[int(np.argmin(finite[i]))][0]
        kind = "number" if name in "ts" else "four-vector"
        return ValueError(f"{name} must be a finite {kind}")

    checks = [(~finite.all(axis=1), nonfinite), *checks]
    fails = np.array([mask for mask, _ in checks])
    i = int(np.argmax(fails.any(axis=0)))
    return i, checks[int(np.argmax(fails[:, i]))][1](i)


def _slopes(u, a, c):
    """Hermite slopes ds/dt = c / gamma, dr/dt = c u / gamma and
    du/dt = a c / gamma of a block of nodes."""
    g = u[:, :1]
    w = c / g
    return w[:, 0], c * u / g, a * w


# cubic Hermite interpolation on the unit interval x of a segment of
# length h: the weights of (y0, dy0, y1, dy1) in the value and in its
# t-derivative. Powers are written as products, so a query rounds the
# same way whatever its batch
def _weights(h, x):
    """(value weights, derivative weights) from one set of powers, each
    weight with the bits of its own formula: t3 - 2 x^3 is -2 x^3 + t3,
    and 0.0 - d0 is (6 x - 6 x^2) / h, +0.0 where d0 is 0."""
    x2 = x * x
    t3, x3 = 3.0 * x2, x2 * x
    two_x3, s6x2 = 2.0 * x3, 6.0 * x2
    d0 = (s6x2 - 6.0 * x) / h
    return ((two_x3 - t3 + 1.0, h * (x3 - 2.0 * x2 + x), t3 - two_x3, h * (x3 - x2)),
            (d0, t3 - 4.0 * x + 1.0, 0.0 - d0, t3 - 2.0 * x))


def _combine(w, y0, dy0, y1, dy1):
    """The weighted sum w0 y0 + w1 dy0 + w2 y1 + w3 dy1, in that order."""
    return w[0] * y0 + w[1] * dy0 + w[2] * y1 + w[3] * dy1


def _hermite_dd(y0, dy0, y1, dy1, h, x):
    return ((12.0 * x - 6.0) / (h * h) * y0 + (6.0 * x - 4.0) / h * dy0
            + (6.0 - 12.0 * x) / (h * h) * y1 + (6.0 * x - 2.0) / h * dy1)


def _capacity(n: int) -> int:
    """Rows of a run laid out for n nodes: room for an eighth more, and at
    least _SPARE_ROWS more. A copy then adds no more than the size of the
    nodes to the memory in use, and a history that grows one node at a
    time is laid out anew after every eighth of its length."""
    return int(n) + max(_SPARE_ROWS, int(n) // 8)


class HistoryBank:
    """The packed node store of one or more histories, the one store of
    every set of histories that is read or written together.

    Slot k holds one history: a run of rows [start_k, start_k + cap_k) in
    one node block _nodes (rows, _WIDTH) and in one lookup key _key
    (rows,) complex, whose real part is k and whose imaginary part is the
    node time on the n_k rows in use and +inf on the run's spare rows.
    numpy orders complex numbers by real part and then imaginary part, so
    the key is sorted, and one searchsorted finds (k, t) for any set of
    its slots with no arithmetic on t, and a query then reads only the
    two nodes around it (_lookup): O(log n) in the store's n rows. Rows
    are written in blocks, their Hermite slopes with them; a run that is
    full is grown by laying all runs out anew (see _capacity).
    """

    def __init__(self, c: float, caps):
        caps = np.asarray(caps, dtype=np.intp)
        self.c = float(c)
        self._n = np.zeros(len(caps), dtype=np.intp)
        # the slots of the whole store in order, as _store_of returns them
        self._order = list(range(len(caps)))
        self._all_slots = np.arange(len(caps))
        self._all_slots.flags.writeable = False
        # the (t, s) of each slot's latest node, NaN while it is empty
        self._last = np.full((len(caps), 2), np.nan)
        self._latest = self._last[:, 0]  # a view: the latest node times
        self._stage = None  # the stage open on the store (see staged)
        self._lay_out(caps)

    def _lay_out(self, cap) -> None:
        """Fresh runs with capacities cap, every row spare."""
        self._cap, self._start = cap, np.cumsum(cap) - cap
        self._key = np.repeat(np.arange(len(cap)) + complex(0.0, np.inf), cap)
        self._t = self._key.imag  # the node times, a view of the key
        self._nodes = np.empty((len(self._key), _WIDTH))

    def _reserve(self, slots, rows) -> None:
        """Room for rows more nodes in each of the distinct slots: when one
        is short, every run is laid out anew and keeps its rows."""
        need = self._n[slots] + rows
        if np.count_nonzero(need > self._cap[slots]):
            cap = self._cap.copy()
            cap[slots] = np.maximum(cap[slots], [_capacity(k) for k in need.tolist()])
            t, nodes, old = self._t, self._nodes, self._start.tolist()
            self._lay_out(cap)
            # a run at a time: no copy of the whole store is made on the way
            for a, b, n in zip(old, self._start.tolist(), self._n.tolist()):
                self._t[b:b + n], self._nodes[b:b + n] = t[a:a + n], nodes[a:a + n]

    def _extend(self, slots, tab, each: int = 1) -> np.ndarray:
        """Write the node rows tab (CSV_HEADER order) with their slopes
        after the latest nodes of slots, each consecutive rows per slot,
        count them as nodes and return the store rows written. The rows
        must fit (see _reserve)."""
        n = self._n[slots]
        pos = self._start[slots] + n
        ds, dr, du = _slopes(tab[:, 6:10], tab[:, 10:14], self.c)
        if each > 1:
            # one slot, so a contiguous run of rows: written a column block
            # at a time, with no copy of the whole table on the way
            pos = slice(int(pos[0]), int(pos[0]) + each)
            nodes = self._nodes[pos]
            nodes[:, :_A.stop], nodes[:, _DS], nodes[:, _DR], nodes[:, _DU] = tab[:, 1:], ds, dr, du
        else:
            self._nodes[pos] = np.concatenate((tab[:, 1:], ds[:, None], dr, du), axis=1)
        self._t[pos] = tab[:, 0]
        self._n[slots] = n + each
        self._last[slots] = tab[each - 1::each, :2]  # each slot's last row
        return pos

    def _unstage(self, slots) -> None:
        """Take the latest nodes of slots, the staged ones, off again."""
        self._n[slots] -= 1
        pos = self._start[slots] + self._n[slots]
        self._t[pos] = np.inf
        self._latest[slots] = self._t[pos - 1]
        self._last[slots, 1] = self._nodes[pos - 1, _S]

    def _tails(self, slots):
        """(k, 2): the (t, s) of each slot's latest node, NaN while it is empty."""
        return self._last.take(slots, axis=0)

    def _index(self, slot, ts):
        """The key index one past the node at or before each query (slot, t),
        the slot's first row before its history: the one key search."""
        q = np.empty(len(ts), dtype=np.complex128)
        q.real = slot
        q.imag = ts
        return self._key.searchsorted(q, side="right")

    def _lookup(self, slot, i):
        """(t0, p, t1, q): for each key index i of slot (see _index), the
        node before it (the slot's first node when there is none) and the
        node at it, whose row is read only inside a segment. Indices are
        clipped into the store, so one past the latest node may read a
        spare row or the next run's first row: only a query on the latest
        node does so, and it never reads that row. Only the 2 M rows
        looked up are read, whatever the size of the store: the times come
        from the contiguous key (take on the strided view _t would first
        copy the whole column)."""
        k = np.concatenate((np.maximum(i - 1, self._start[slot]), i))
        t, rows = self._key.take(k, mode="clip").imag, self._nodes.take(k, axis=0, mode="clip")
        m = len(i)
        return t[:m], rows[:m], t[m:], rows[m:]

    def _states(self, slot, ts, keep: bool = False):
        """States of the slots slot (one, or one per time) at times ts
        (with keep, and their segments: see _evaluate)."""
        self._present(slot, ts)
        return _evaluate(ts, *self._lookup(slot, self._index(slot, ts)), self.c, keep)

    def _present(self, slot, ts, at_latest: bool = False) -> None:
        """Raise QueryBeyondPresent for the first query time, in request
        order, past the latest node of its slot (slot is one, or one per
        time). A time past that node (with at_latest, at or past it) of a
        slot of the open stage, and not past its staged time, reads the
        stage: the stage's rows are written first (see staged)."""
        latest = self._latest[slot]
        ok = ts < latest if at_latest else ts <= latest  # also False for a NaN time
        if np.count_nonzero(ok) == len(ts):
            return
        stage = self._stage
        if stage is not None and not stage.read:
            t_staged = np.full(len(self._n), np.nan)
            t_staged[stage.slots] = stage.tab[:, 0]
            if np.count_nonzero(~ok & (ts <= t_staged[slot])):
                stage.read = True
                self._extend(stage.slots, stage.tab)
                latest = self._latest[slot]
        ok = ts <= latest
        if np.count_nonzero(ok) < len(ts):
            latest = np.broadcast_to(latest, ts.shape)[~ok]
            if np.count_nonzero(np.isnan(latest)):
                raise QueryBeyondPresent("history holds no samples")
            raise QueryBeyondPresent(f"query at t={ts[~ok][0].item()!r} is beyond "
                                     f"latest stored t={float(latest[0])!r}")


def _check_set(hs) -> None:
    """Raise ValueError unless the set hs names each history once and
    all of them share one light speed."""
    if len(set(map(id, hs))) < len(hs):
        raise ValueError("a set of histories must name each history once")
    if any(h.c != hs[0].c for h in hs):
        raise ValueError("histories in one store must share one light speed")


def _store_of(hs):
    """(store, slots) of a set of histories read or written together: their
    one store and the slot of each. A ValueError is raised, before anything
    is read or written, when they span several stores or name one history
    twice (see _check_set); histories in one store share its light speed."""
    bank = hs[0]._bank
    slots = [h._slot for h in hs if h._bank is bank]
    if len(slots) == len(hs) and slots == bank._order:
        return bank, bank._all_slots  # the whole store, each slot once
    if len(set(slots)) < len(hs):
        _check_set(hs)
        raise ValueError("histories read or written together must share one store")
    return bank, np.array(slots)


class WorldlineHistory:
    """Growable sampled worldline for one particle: a view of one slot
    of a HistoryBank.

    Single writer (the integrator) appends; readers interpolate between
    write phases. A history made on its own holds a store of its own;
    copy_histories puts copies of a set of histories into one store.
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
        self._bank, self._slot = HistoryBank(self.c, [_capacity(_SPARE_ROWS)]), 0

    def _bound(self, bank: HistoryBank, slot: int, spec=None) -> "WorldlineHistory":
        """A history with this one's c, tolerances and flags (and spec,
        unless given) over slot of bank."""
        out = object.__new__(WorldlineHistory)
        out.spec = self.spec if spec is None else spec
        out.c, out.constraint_tol, out.hard_tol = self.c, self.constraint_tol, self.hard_tol
        out.flags = list(self.flags)
        out._bank, out._slot = bank, slot
        return out

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
        _append((self,), tab)

    def append(self, sample: WorldlineSample) -> None:
        """Add one node: a one-row extend."""
        self.extend(_sample_row(sample))

    def copy(self, spec: ParticleSpec | None = None) -> "WorldlineHistory":
        """Independent history in a store of its own, with the same nodes,
        c, tolerances and flags, for spec when given; nothing is
        re-validated."""
        return copy_histories([self], None if spec is None else [spec])[0]

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
        return int(self._bank._n[self._slot])

    def _span(self) -> tuple[int, int]:
        """The store rows [a, b) of the nodes."""
        a = int(self._bank._start[self._slot])
        return a, a + len(self)

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
        a, b = self._span()
        return np.column_stack((self._bank._t[a:b], self._bank._nodes[a:b, :_A.stop]))

    def _times(self) -> np.ndarray:
        """Node times; raises QueryBeyondPresent on an empty history."""
        a, b = self._span()
        if a == b:
            raise QueryBeyondPresent("history holds no samples")
        return self._bank._t[a:b]

    @property
    def t_first(self) -> float:
        return float(self._times()[0])

    @property
    def t_latest(self) -> float:
        return float(self._times()[-1])

    # -- queries -----------------------------------------------------------

    def states_at(self, ts) -> WorldlineSample:
        """States at many times as one WorldlineSample of stacked arrays."""
        return self._bank._states(self._slot, np.asarray(ts, dtype=np.float64).reshape(-1))

    def state_at_time(self, t: float) -> WorldlineSample:
        b = self._bank._states(self._slot, np.array([t], dtype=np.float64))
        return WorldlineSample(float(b.t[0]), float(b.s[0]), b.r[0], b.u[0], b.a[0])

    # -- export ------------------------------------------------------------

    def export_csv(self, path, comment: str | None = None) -> None:
        """Write the nodes as a CSV_HEADER table (see write_table), read
        from the store one block of rows at a time."""
        bank, (a, b) = self._bank, self._span()
        spans = ((i, min(i + _BLOCK_ROWS, b)) for i in range(a, b, _BLOCK_ROWS))
        write_table(path, CSV_HEADER, (np.column_stack((bank._t[i:j], bank._nodes[i:j, :_A.stop]))
                                       for i, j in spans), comment)


def copy_histories(histories, specs=None) -> list:
    """Independent copies of histories (from any stores) in one new store,
    copy i in slot i, with the same nodes, slopes, c, tolerances and flags
    (and specs[i] for copy i when given); nothing is re-validated. The
    set must name each history once, all of one light speed, and no
    stage may be open on a store it is copied from (a staged node is
    provisional, not one of the nodes); a ValueError is raised before
    anything is copied otherwise."""
    hs = list(histories)
    _check_set(hs)
    if any(h._bank._stage is not None for h in hs):
        raise ValueError("no history can be copied while a stage is open on its store")
    bank = HistoryBank(hs[0].c, [_capacity(len(h)) for h in hs])
    for i, h in enumerate(hs):
        (a, b), s = h._span(), bank._start[i]
        bank._t[s:s + b - a] = h._bank._t[a:b]
        bank._nodes[s:s + b - a] = h._bank._nodes[a:b]
        bank._n[i], bank._last[i] = b - a, h._bank._last[h._slot]
    return [h._bound(bank, i, None if specs is None else specs[i]) for i, h in enumerate(hs)]


def _append(hs, tab, labelled: bool = False) -> None:
    """Append node rows tab (CSV_HEADER order) as one checked block write
    to the one store of hs: every row to hs[0] when hs holds one history,
    else row i to hs[i] (see WorldlineHistory.extend). With labelled, a
    failure carries its history's label as .particle. The check runs in
    its own call, so its temporaries are freed before a long block is
    written. Nothing is written while a stage is open on the store: the
    stage would take the new nodes off again on its exit."""
    bank, slots = _store_of(hs)
    if bank._stage is not None:
        raise ValueError("no node can be written to a store while a stage is open on it")
    ct = hs[0].c * tab[:, 0]
    _check_rows(hs, bank._tails(slots), tab, ct, labelled)
    each = len(tab) if len(hs) == 1 else 1
    bank._reserve(slots, each + 1)  # and one row to stage the next node in
    at = bank._extend(slots, tab, each)
    bank._nodes[at, _R.start] = ct  # canonicalize so r^0 = c t holds bit-for-bit


_FLAGS = ("u-normalization-drift", "u.a-orthogonality-drift", "prehistory-curvature-jump")


def _check_rows(hs, tails, tab, ct, labelled: bool) -> None:
    """Raise the first failure of the rows _append is given, in row order
    and then in check order, with .particle its history's label when
    labelled; else add the _FLAGS they raise to their histories, in the
    order of the first row raising each. tails holds the (t, s) of hs
    (see HistoryBank._tails) and ct the c t of each row."""
    one = len(hs) == 1  # else row i is hs[i]'s
    hard = np.array([h.hard_tol for h in hs])  # one per history
    t, s, r, u, a = tab[:, 0], tab[:, 1], tab[:, 2:6], tab[:, 6:10], tab[:, 10:14]
    # the (t, s) of the node before each row, NaN before a history's
    # first node, which no row needs to advance past
    prev = np.concatenate((tails, tab[:-1, :2])) if one else tails
    behind = tab[:, :2] <= prev
    uu = u * u  # the squares u_mu^2, each as u[:, mu] ** 2 rounds it
    norm_err = np.abs(uu[:, 0] - np.add.reduce(uu[:, 1:], axis=1) - 1.0)
    fail = _first_failure(tab, (
        (behind[:, 0], lambda i: NonMonotonicTime(
            f"append at t={t[i].item()!r} does not advance past {prev[i, 0].item()!r}")),
        (behind[:, 1], lambda i: NonMonotonicTime(
            f"append at s={s[i].item()!r} does not advance past {prev[i, 1].item()!r}")),
        (norm_err > hard, lambda i: ConstraintViolation(
            f"|u.u - 1| = {norm_err[i]:.3e} exceeds hard tolerance {hard[0 if one else i]:.1e}")),
        (np.abs(r[:, 0] - ct) > 1e-9 * (1.0 + np.abs(ct)), lambda i: ConstraintViolation(
            f"r^0 = {r[i, 0].item()!r} does not equal c t = {ct[i].item()!r}")),
    ))
    if fail is not None:
        i, exc = fail
        if labelled:
            exc.particle = hs[0 if one else i].spec.label
        raise exc
    soft = np.array([h.constraint_tol for h in hs])
    a_max = np.maximum.reduce(np.abs(a), axis=1)
    ua = u * a
    ua = np.abs(ua[:, 0] - np.add.reduce(ua[:, 1:], axis=1))
    hits = (norm_err > soft, ua > soft * (1.0 + a_max),
            # a != 0 at the very first node marks a C^1-only prehistory junction
            np.isnan(prev[:, 0]) & (a_max > 1e-12))
    if not (np.count_nonzero(hits[0]) or np.count_nonzero(hits[1])
            or np.count_nonzero(hits[2])):
        return
    hits = np.array(hits)
    for h, hit in [(hs[0], hits)] if one else zip(hs, hits.T[:, :, None]):
        new = [(int(np.argmax(rows)), f) for f, rows in zip(_FLAGS, hit)
               if np.count_nonzero(rows) and f not in h.flags]
        h.flags += [f for _, f in sorted(new, key=lambda first: first[0])]


def commit(histories, rows) -> None:
    """Append one node per history as one checked block write: row i,
    in CSV_HEADER order, to histories[i].

    Every row is checked as extend checks it, against its own history.
    Nothing is committed unless every row passes; the first failure, in
    row order and then in check order, is raised with .particle set to
    its history's label.
    """
    hs = tuple(histories)
    tab = np.asarray(rows, dtype=np.float64)
    if tab.shape != (len(hs), len(CSV_HEADER)):
        raise ValueError(f"committed rows need shape ({len(hs)}, {len(CSV_HEADER)}), "
                         f"got {tab.shape}")
    _append(hs, tab, labelled=True)


def gather(histories, src, ts) -> WorldlineSample:
    """States of histories[src[m]] at ts[m] for every m, as one
    WorldlineSample of stacked arrays (t, s (M,); r, u, a (M, 4)).

    src may be one index for all times. One key lookup over the store of
    the histories finds every node, whatever the order of sources, and
    one evaluation gives all M states; a query past its history's
    present raises QueryBeyondPresent naming the first such time in
    request order. The histories must share one store and name each
    history once (a ValueError otherwise; copy_histories puts a set made
    apart into one store).
    """
    bank, slots = _store_of(tuple(histories))
    return bank._states(slots[src], np.asarray(ts, dtype=np.float64).reshape(-1))


def _read(histories, src, ts, kept=None):
    """gather(histories, src, ts) for a caller that reads the same events
    again, as (states, segment): segment the _Segment each state was read
    from. histories is a tuple, src one source per time and ts a float
    array. kept, the segment of the same rows' last read, is consumed: a
    time strictly inside its row's segment there is read from that
    segment's rows with no lookup, since a lookup would find the same two
    nodes; only the other times are looked up, as gather looks them up
    and raising as it raises."""
    if kept is not None:
        t0, p, t1, q, _ = kept
        inside = (t0 < ts) & (ts < t1)
        n = np.count_nonzero(inside)
        if n == len(ts):
            return _evaluate(ts, t0, p, t1, q, histories[0].c, keep=True)
        if n:
            fresh = ~inside
            bank, slots = _store_of(histories)
            slot, at = slots[src[fresh]], ts[fresh]
            bank._present(slot, at)
            t0[fresh], p[fresh], t1[fresh], q[fresh] = bank._lookup(slot, bank._index(slot, at))
            return _evaluate(ts, t0, p, t1, q, bank.c, keep=True)
    bank, slots = _store_of(histories)
    return bank._states(slots[src], ts, keep=True)


def u_dotdot(histories, src, ts) -> np.ndarray:
    """d^2 u / ds^2 of the interpolated u of histories[src[m]] at ts[m]
    for every m, (M, 4), from the nodes gather's key lookup finds.

    Piecewise quadratic in t, accurate to O(h^2), for the asymptotic
    self-force, itself a first-order approximation. A node takes the
    segment starting there, the latest node the one ending there (so a
    query at it reads an open stage); before the first node u'' is
    zero. A query past the present, a NaN time, or a one-node history
    queried at its node raises QueryBeyondPresent. The histories must
    share one store, as in gather.
    """
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
    out[seg] = _segment_udotdot(*(x[seg] for x in (ts, t0, p, t1, q)), bank.c)
    return out


def _read_udotdot(histories, src, t, u, segment) -> np.ndarray:
    """u_dotdot(histories, src, t) of states _read read at times t, u
    their u and segment their _Segment: a state read strictly inside its
    segment takes u'' from that segment's rows and the u and du/dt read
    there, with no lookup and the bits of u_dotdot's; u_dotdot looks up
    only the others (a state on a node or before the first node)."""
    t0, p, t1, q, du = segment
    inside = t0 < t
    n = np.count_nonzero(inside)
    c = histories[0].c
    if n == len(t):
        return _segment_udotdot(t, t0, p, t1, q, c, u, du)
    if not n:
        return u_dotdot(histories, src, t)
    out = np.empty((len(t), 4))
    out[inside] = _segment_udotdot(*(x[inside] for x in (t, t0, p, t1, q)), c,
                                   u[inside], du[inside])
    out[~inside] = u_dotdot(histories, src[~inside], t[~inside])
    return out


def _evaluate(t, t0, p, t1, q, c: float, keep: bool = False):
    """The one interpolation formula: states at times t from the node
    (t0, p) at or before each time and the node (t1, q) after it, as node
    rows of _nodes. A time on a node returns that node, a time before
    the first node its inertial extension, any other the cubic Hermite
    interpolant of the segment, with a from the derivative of u. With
    keep, (states, segment): segment the _Segment each state was read
    from (for _read)."""
    seg = t > t0
    n_seg = np.count_nonzero(seg)
    if n_seg == len(t):
        y, a, du = _segment(t, t0, p, t1, q, c)
    else:
        y, a = p[:, _Y].copy(), p[:, _A].copy()
        if n_seg:
            y[seg], a[seg], du_seg = _segment(t[seg], t0[seg], p[seg], t1[seg], q[seg], c)
        pre = t < t0
        if np.count_nonzero(pre):
            # inertial extension of the first node
            dt, pp = (t - t0)[pre], p[pre]
            v = c / pp[:, _U.start]
            y[pre, _R] = pp[:, _R] + v[:, None] * pp[:, _U] * dt[:, None]
            y[pre, _S] = pp[:, _S] + v * dt
            a[pre] = 0.0
        if keep:
            # a state read on a node or before the first keeps an empty
            # segment: the row after a latest node is no node of its history
            du = np.zeros((len(t), 4))
            if n_seg:
                du[seg] = du_seg
            t1 = np.where(seg, t1, t0)
    r = y[:, _R]
    r[:, 0] = c * t
    out = WorldlineSample(t, y[:, _S], r, y[:, _U], a)
    return (out, _Segment(t0, p, t1, q, du)) if keep else out


def _segment(t, t0, p, t1, q, c: float):
    """(s, r, u) as one (M, 9) block, a and du/dt of times inside segments."""
    h = t1 - t0
    x = (t - t0) / h
    # one segment's basis weights are plain floats: the same arithmetic
    # (so the same bits) at a fraction of the array overhead
    h, x = (h.item(), x.item()) if len(t) == 1 else (h[:, None], x[:, None])
    w, d = _weights(h, x)
    y = _combine(w, p[:, _Y], p[:, _DY], q[:, _Y], q[:, _DY])
    du = _combine(d, p[:, _U], p[:, _DU], q[:, _U], q[:, _DU])
    return y, (y[:, _U.start, None] / c) * du, du


def _segment_udotdot(t, t0, p, t1, q, c, u=None, du=None) -> np.ndarray:
    """d^2 u / ds^2 of the u-interpolant at times inside segments, (M, 4):
    the one u'' formula. u and du/dt at the times are interpolated unless
    given (as _segment reads them, so with the same bits)."""
    h = t1 - t0
    hx = (h[:, None], ((t - t0) / h)[:, None])
    y = (p[:, _U], p[:, _DU], q[:, _U], q[:, _DU])
    if du is None:
        w, d = _weights(*hx)
        u, du = _combine(w, *(v[:, :1] for v in y)), _combine(d, *y)
    # d/ds = (gamma/c) d/dt applied twice to u, so of the value only u^0
    # is read; float_power squares with C's pow, as a float's ** 2 does
    # (x * x can differ in the last bit)
    g = u[:, :1] / c
    return np.float_power(g, 2.0) * _hermite_dd(*y, *hx) + g * (du[:, :1] / c) * du


class _Stage:
    """The context manager staged returns; read tells whether a query
    has read (and so written) its rows."""

    def __init__(self, bank, slots, tab):
        self.bank, self.slots, self.tab, self.read = bank, slots, tab, False

    def __enter__(self) -> "_Stage":
        self.bank._stage = self
        return self

    def __exit__(self, *exc) -> None:
        self.bank._stage = None
        if self.read:
            self.bank._unstage(self.slots)


def staged(histories, rows) -> _Stage:
    """Stage one provisional node per history (an RK stage prediction)
    for the duration of a with block: with staged(hs, rows) as stage,
    after which stage.read tells whether any query read the rows.

    rows is an (N, 14) block in CSV_HEADER order, row i for histories[i].
    Every row must be finite and advance past its history's latest node;
    the first failure, in row order, is raised with .particle set to its
    history's label (QueryBeyondPresent, naming the first empty history,
    when a history holds no node), and so is a ValueError when the
    histories do not share one store or name one history twice, or when
    a stage is open on their store (one stage per store). No tolerance
    is checked, no flag raised and nothing written before the checks
    pass.

    The rows are written when a query first reads them, and only then:
    a time past a staged history's latest node (for u_dotdot, at or past
    it, as the node takes the segment ending there until a row follows
    it) and not past its staged time; a time past that still raises
    QueryBeyondPresent. The query writes them as one block, row i into
    the spare row every other write leaves after history i's latest
    node, and sets stage.read. From then on they are the latest nodes
    for every read, len, table, t_latest and export_csv included, which
    see only the committed nodes before. On exit, normal or not, written
    rows are removed again.
    """
    hs = tuple(histories)
    tab = np.asarray(rows, dtype=np.float64)
    if tab.shape != (len(hs), len(CSV_HEADER)):
        raise ValueError(f"staged rows need shape ({len(hs)}, {len(CSV_HEADER)}), "
                         f"got {tab.shape}")
    bank, slots = _store_of(hs)
    if bank._stage is not None:
        raise ValueError("a stage is already open on the histories' store")
    latest = bank._latest[slots]
    fail = _first_failure(tab, ((~(tab[:, 0] > latest), lambda i: NonMonotonicTime(
        "provisional sample must advance time")),))
    if fail is not None:
        empty = np.isnan(latest)
        if np.count_nonzero(empty):
            fail = int(np.argmax(empty)), QueryBeyondPresent("history holds no samples")
        i, exc = fail
        exc.particle = hs[i].spec.label
        raise exc
    return _Stage(bank, slots, tab)


# -- factories used by tests, demos and seeding -----------------------------

def _four_velocity(v3, c: float) -> np.ndarray:
    """u = (gamma, gamma v / c) of a 3-velocity dx/dt; ValueError when it
    is not below c."""
    v = np.asarray(v3, dtype=np.float64)
    b2 = float(v @ v) / c**2
    if b2 >= 1.0:
        raise ValueError("Superluminal velocity")
    g = 1.0 / np.sqrt(1.0 - b2)
    return np.concatenate(([g], g * v / c))


def inertial_history(spec: ParticleSpec, x0, v3, t0: float, t1: float,
                     n: int, c: float = 1.0) -> WorldlineHistory:
    """Uniformly sampled inertial worldline from t0 to t1 inclusive."""
    v = np.asarray(v3, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    u = _four_velocity(v, c)
    g = u[0]
    ts = np.linspace(t0, t1, n)
    h = WorldlineHistory(spec, c=c)
    h.extend(np.column_stack((ts, (c / g) * (ts - t0), c * ts,
                              x0 + (ts - t0)[:, None] * v, np.tile(u, (n, 1)),
                              np.zeros((n, 4)))))
    return h


def history_from_kinematics(spec: ParticleSpec, t_nodes, x_fn, v_fn, acc_fn,
                            c: float = 1.0) -> WorldlineHistory:
    """Sample a history from analytic position/velocity/acceleration callables.

    x_fn, v_fn, acc_fn map t to 3-vectors (position, dx/dt, d^2x/dt^2).
    Proper time is accumulated per segment by Simpson quadrature of
    c dt / gamma, which matches the interpolant's O(h^4) accuracy.
    """
    t_nodes = np.asarray(t_nodes, dtype=np.float64)
    rows = []
    s = 0.0

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
