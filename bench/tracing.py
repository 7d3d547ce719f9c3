"""Call instrumentation for the benchmark, installed from outside ``src/``.

Two modes share one wrapper:

* light (``tracing=False``): only ``dynamics.step`` (per-step wall time,
  failures, the stepped states for the output checks) and the two
  delay-root entry points (worst residual against the root tolerance)
  are wrapped. End-to-end metrics are measured in this mode.
* traced (``tracing=True``): every public function of the seven layers
  is wrapped at every module that holds a reference to it, plus the
  class methods in ``METHODS``. Each call records a span (name, parent,
  start, end) in flat arrays; a layer's self time is its span time
  minus the time of its child spans.

``install`` swaps the wrappers in and ``uninstall`` restores the
originals, so traced and untraced solutions can alternate in one
process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("minkowski", "worldline", "retardation", "fields", "dynamics",
          "canonical", "harness")

# Class methods (and one private kernel) traced on top of each layer's
# public module-level functions. Missing names are skipped, so a layer
# that drops one of them still runs; its counts then read 0.
METHODS = {
    "minkowski": [("FaradayTensor", "__post_init__")],
    "worldline": [("WorldlineHistory", "state_at_time"),
                  ("WorldlineHistory", "u_dotdot_at_time"),
                  ("WorldlineHistory", "append"),
                  ("WorldlineHistory", "export_csv"),
                  ("ProvisionalView", "__init__"),
                  ("ProvisionalView", "state_at_time"),
                  ("ProvisionalView", "u_dotdot_at_time")],
    "fields": [(None, "_kernel")],
    "canonical": [("FrozenHistoryContext", "__init__"),
                  ("FrozenHistoryContext", "a_eff_cov")],
}

ROOTS = ("retardation.self_delay", "retardation.pair_delay")
BOOKKEEPING = "bench.bookkeeping"


def is_query(key: str) -> bool:
    """Whether a span name is a history query."""
    return key.startswith("worldline.") and key.endswith(
        (".state_at_time", ".u_dotdot_at_time"))


class Instrument:
    """Wrappers, spans and counters for one process."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self._mods = {name: importlib.import_module(f"retnbody.{name}")
                      for name in LAYERS}
        self._tol = getattr(self._mods["retardation"], "root_tolerance", None)
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple] = []
        self._paused = False
        self.reset()

    # -- per-solution state -------------------------------------------------

    def reset(self) -> None:
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_t0 = array("d")
        self._span_t1 = array("d")
        self._stack: list[int] = []
        self._depth = {"step": 0, "fields": 0, "root": 0}
        self.counts = dict.fromkeys(
            ("steps_attempted", "steps_failed", "step_roots", "diag_roots",
             "root_queries", "zero_charge_roots", "step_total_faraday",
             "view_nodes", "export_bytes"), 0)
        self.force_evals = 0.0
        self.nodes_end = 0
        self.worst_residual_ratio = 0.0
        self.step_spans: list[tuple[float, float]] = []  # perf_counter
        self.states: dict[int, object] = {}

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, key, layer) for every function to wrap."""
        if not self.tracing:
            dyn, ret = self._mods["dynamics"], self._mods["retardation"]
            return [(dyn, "step", "dynamics.step", "dynamics"),
                    (ret, "self_delay", "retardation.self_delay", "retardation"),
                    (ret, "pair_delay", "retardation.pair_delay", "retardation")]
        out = []
        for layer, mod in self._mods.items():
            for name, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not name.startswith("_")):
                    out.append((mod, name, f"{layer}.{name}", layer))
            for cls_name, attr in METHODS.get(layer, ()):
                owner = mod if cls_name is None else getattr(mod, cls_name, None)
                if owner is not None and attr in vars(owner):
                    prefix = "" if cls_name is None else f"{cls_name}."
                    out.append((owner, attr, f"{layer}.{prefix}{attr}", layer))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("instrument already installed")
        for owner, attr, key, layer in self._targets():
            fn = vars(owner)[attr]
            wrapper = self._wrap(fn, key, layer)
            if inspect.isclass(owner):
                sites = [(owner, attr)]
            else:
                # every module of the package that imported this function
                sites = [(mod, name) for mod in self._mods.values()
                         for name, val in vars(mod).items() if val is fn]
            for site, name in sites:
                self._patched.append((site, name, fn))
                setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, fn in reversed(self._patched):
            setattr(site, name, fn)
        self._patched = []

    # -- the wrapper ------------------------------------------------------------

    def _name_id(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = len(self._names)
            self._names.append(key)
        return self._ids[key]

    def _wrap(self, fn, key: str, layer: str):
        nid = self._name_id(key) if self.tracing else None
        tag = ("root" if key in ROOTS else "step" if key == "dynamics.step"
               else "fields" if layer == "fields" else None)
        before, after = self._hooks(key)
        clock = time.perf_counter
        instr = self

        def wrapper(*args, **kwargs):
            if instr._paused:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            if nid is not None:
                stack = instr._stack
                idx = len(instr._span_name)
                instr._span_name.append(nid)
                instr._span_parent.append(stack[-1] if stack else -1)
                instr._span_t1.append(0.0)
                stack.append(idx)
            if tag is not None:
                instr._depth[tag] += 1
            if nid is not None:
                instr._span_t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if tag == "step":
                    instr.counts["steps_failed"] += 1
                raise
            finally:
                if nid is not None:
                    instr._span_t1[idx] = clock()
                    instr._stack.pop()
                if tag is not None:
                    instr._depth[tag] -= 1
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _hooks(self, key: str):
        """(before, after) callbacks that keep the context-dependent counts."""
        if key == "dynamics.step":
            return self._step_before, self._step_after
        if key == "retardation.self_delay":
            return self._root_before, self._self_root_after
        if key == "retardation.pair_delay":
            return self._root_before, self._pair_root_after
        if is_query(key):
            return self._query_before, None
        if key == "fields.total_faraday":
            return self._faraday_before, None
        if key == "worldline.ProvisionalView.__init__":
            return None, self._view_after
        if key == "worldline.WorldlineHistory.export_csv":
            return None, self._export_after
        return None, None

    # -- hooks --------------------------------------------------------------------

    def _step_before(self, args, kwargs):
        self.counts["steps_attempted"] += 1
        return (time.perf_counter(), self.counts["step_total_faraday"])

    def _step_after(self, token, args, kwargs, state):
        t_start, tf_start = token
        self.step_spans.append((t_start, time.perf_counter()))
        self.states[id(state)] = state
        hists = state.histories
        self.force_evals += (self.counts["step_total_faraday"] - tf_start) / len(hists)
        self.nodes_end = max(self.nodes_end, sum(len(h) for h in hists))

    def _root_before(self, args, kwargs):
        c, d = self.counts, self._depth
        if d["step"]:
            c["step_roots"] += 1
            if not d["fields"]:
                c["diag_roots"] += 1
        source = args[0] if args else None
        if source is not None and source.spec.q == 0.0:
            c["zero_charge_roots"] += 1

    def _self_root_after(self, token, args, kwargs, root):
        sigma = args[2] if len(args) > 2 else kwargs.get("sigma")
        h = args[0]
        # the self root is measured from the source's own position: d2 = 0
        ratio = self._note_residual(root, h.spec.sigma if sigma is None else sigma)
        self.worst_residual_ratio = max(self.worst_residual_ratio, ratio)

    def _pair_root_after(self, token, args, kwargs, root):
        sigma = args[2] if len(args) > 2 else kwargs["sigma_shift"]
        upper = self._note_residual(root, sigma)
        if upper <= self.worst_residual_ratio:
            return
        # the tolerance grows with the observer-source distance at t_obs;
        # find it only when this root could raise the worst ratio
        h = args[0]
        obs = np.asarray(args[1] if len(args) > 1 else kwargs["observer_event"],
                         dtype=np.float64)
        src = self._unrecorded_query(h, float(obs[0]) / h.c)
        d = obs[1:] - src.r[1:]
        self.worst_residual_ratio = max(
            self.worst_residual_ratio,
            abs(float(root.residual)) / self._tol(float(d @ d), sigma))

    def _note_residual(self, root, sigma) -> float:
        """Residual over the zero-distance tolerance: exact for self roots,
        an upper bound for pair roots."""
        res = abs(float(root.residual))
        if self._tol is None or res == 0.0:
            return 0.0
        return res / self._tol(0.0, sigma)

    def _unrecorded_query(self, h, t):
        """A history query made for a check, kept out of counts and self times."""
        if not self.tracing:
            return h.state_at_time(t)
        nid = self._name_id(BOOKKEEPING)
        idx = len(self._span_name)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_t0.append(time.perf_counter())
        self._span_t1.append(0.0)
        self._paused = True
        try:
            return h.state_at_time(t)
        finally:
            self._paused = False
            self._span_t1[idx] = time.perf_counter()

    def _query_before(self, args, kwargs):
        if self._depth["root"]:
            self.counts["root_queries"] += 1

    def _faraday_before(self, args, kwargs):
        if self._depth["step"]:
            self.counts["step_total_faraday"] += 1

    def _view_after(self, token, args, kwargs, result):
        base = args[1] if len(args) > 1 else kwargs.get("base")
        prov = args[2] if len(args) > 2 else kwargs.get("provisional", ())
        try:
            self.counts["view_nodes"] += len(base) + len(prov)
        except TypeError:
            pass

    def _export_after(self, token, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            self.counts["export_bytes"] += os.path.getsize(path)

    # -- span summary ----------------------------------------------------------------

    def span_summary(self, to_time=None):
        """Per span name: (calls, inclusive seconds, self seconds).

        ``to_time`` maps arrays of ``time.perf_counter()`` readings onto
        another clock (``SpeedClock.normalized_at``) before spans are timed.
        """
        n = len(self._span_name)
        if self._stack:
            raise RuntimeError("summary requested with spans still open")
        names = np.frombuffer(self._span_name, dtype=np.int32, count=n)
        parents = np.frombuffer(self._span_parent, dtype=np.int32, count=n)
        t0 = np.frombuffer(self._span_t0, dtype=np.float64, count=n)
        t1 = np.frombuffer(self._span_t1, dtype=np.float64, count=n)
        if to_time is not None:
            t0, t1 = to_time(t0), to_time(t1)
        dur = t1 - t0
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        k = len(self._names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self._names)}
