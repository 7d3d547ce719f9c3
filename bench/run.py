"""retnbody benchmark: one workload per invocation, closed loop, one thread.

    python3 bench/run.py --workload {pair_restart,ring6,certify}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
``src/``. Inputs are made from ``--seed`` into a work directory under
``.bench_work/`` that is removed on exit. The run repeats whole
solutions (every command of the workload through ``retnbody.harness.main``)
for about ``--seconds`` and checks each solution's outputs.

``--trace 0`` prints the end-to-end metrics (medians over the run, in
host-speed-normalised time, see bench/speed.py);
``--trace 1`` alternates untraced and traced solutions and prints the
per-layer metrics. The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads: the benchmark is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_REPEATS = 5
END_STATE_ATOL = 1e-8


def _import_program():
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(src, "retnbody", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        sys.exit(f"bench: {ROOT} holds no retnbody sources (src/retnbody) "
                 "and configs/; run from a checkout of the repository")
    sys.path.insert(0, src)
    import retnbody
    if not os.path.abspath(retnbody.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported retnbody from {retnbody.__file__}, "
                 f"not from {src}")


_import_program()

import numpy as np  # noqa: E402

from retnbody import harness  # noqa: E402
import speed  # noqa: E402
from tracing import ROOTS, Instrument, is_query  # noqa: E402
from workloads import WORKLOADS, end_state  # noqa: E402


def reference_ms(repeats: int = 5) -> float:
    """Machine-speed reference: the speed kernel at 4000 iterations,
    median of runs."""
    return 1e3 * statistics.median(speed.reference_kernel(4000) for _ in range(repeats))


class Tally:
    """Attempted and failed operations, plus the failed checks by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.add(1, 0 if ok else 1)
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _artifact_bytes(out: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out) for f in files)


def solve(workload, instr, out: str, tally: Tally, first_end: list):
    """One solution with ``instr`` installed; returns its (start, end)
    ``time.perf_counter()`` readings.

    Checks its outputs into ``tally``; ``first_end`` holds the first
    solution's end state, which every later one must repeat exactly.
    """
    instr.reset()
    os.makedirs(out)
    commands = workload.commands(out)
    bad_cmds = 0
    instr.install()
    t = time.perf_counter()
    try:
        for argv in commands:
            try:
                code = harness.main(argv)
            except Exception:  # an escaped error is a failed command
                traceback.print_exc()
                code = -1
            bad_cmds += code != 0
    finally:
        t_end = time.perf_counter()
        instr.uninstall()
    tally.add(len(commands) + instr.counts["steps_attempted"],
              bad_cmds + instr.counts["steps_failed"])
    states = list(instr.states.values())
    for name, ok, detail in workload.check(out, states):
        tally.check(name, ok, detail)
    tally.check("root_residual_within_tolerance",
                instr.worst_residual_ratio <= 1.0,
                f"worst residual / root_tolerance = {instr.worst_residual_ratio:.3g}")
    if workload.has_reference:
        end = end_state(states)
        if not first_end:
            first_end.append(end)
            if workload.seed == 0:
                _check_reference(workload.name, end, tally)
        tally.check("end_state_repeats", end == first_end[0],
                    "end state differs between solutions of one run")
    return t, t_end


def _check_reference(name: str, end, tally: Tally) -> None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)[name]
    except (OSError, KeyError, ValueError) as exc:
        tally.check("end_state_matches_reference", False, f"no reference: {exc!r}")
        return
    a, b = np.array(end), np.array(ref)
    diff = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("inf")
    tally.check("end_state_matches_reference", diff <= END_STATE_ATOL,
                f"max |end - reference| = {diff:.3e} (atol {END_STATE_ATOL:g})")


def _tail(samples, pct):
    """The pct-th percentile and the number of samples above it."""
    value = float(np.percentile(samples, pct))
    return value, sum(1 for s in samples if s > value)


def _timed_setup(workload) -> tuple[float, float]:
    t = time.perf_counter()
    workload.setup()
    return t, time.perf_counter()


def run_untraced(workload, seconds: float, tally: Tally, work: str) -> dict:
    """Solutions until ``seconds`` are used, each after its own timed
    set-ups, so set-up and solution samples both spread over the run.
    Every timing is normalised for host speed by a ``speed.SpeedClock``."""
    instr = Instrument(tracing=False)
    clock = speed.SpeedClock()
    setup_spans, wall_spans, step_spans, first_end = [], [], [], []
    start = time.perf_counter()
    clock.start()
    try:
        while True:
            setup_spans.extend(_timed_setup(workload)
                               for _ in range(workload.setups_per_solution))
            out = os.path.join(work, f"out{len(wall_spans)}")
            wall_spans.append(solve(workload, instr, out, tally, first_end))
            step_spans.extend(instr.step_spans)
            shutil.rmtree(out)
            elapsed = time.perf_counter() - start
            median_wall = statistics.median(b - a for a, b in wall_spans)
            if (len(wall_spans) >= workload.min_solutions
                    and elapsed + 0.5 * median_wall >= seconds):
                break
        while len(setup_spans) < SETUP_REPEATS:
            setup_spans.append(_timed_setup(workload))
    finally:
        clock.stop()

    setups = [clock.normalized(a, b) for a, b in setup_spans]
    walls = [clock.normalized(a, b) for a, b in wall_spans]
    step_ms = [1e3 * clock.normalized(a, b) for a, b in step_spans]
    raw_step_ms = [1e3 * clock.raw(a, b) for a, b in step_spans] or [0.0]
    print(f"speed samples {clock.samples}, reference kernel median "
          f"{clock.reference_ms():.3f} ms (nominal {speed.NOMINAL_MS} ms); "
          f"measured medians: wall_s "
          f"{statistics.median(clock.raw(a, b) for a, b in wall_spans):.4f}, "
          f"step_ms_p50 {statistics.median(raw_step_ms):.3f}")
    tally.check("steps_timed", bool(step_ms), "no dynamics.step call completed")
    step_ms = step_ms or [0.0]
    tail, beyond = _tail(step_ms, workload.tail_pct)
    print(f"solutions {len(walls)}, steps timed {len(step_ms)}, "
          f"step_ms_tail = p{workload.tail_pct} ({beyond} steps beyond it)")
    if beyond < 10:
        print(f"warning: only {beyond} steps beyond p{workload.tail_pct}; "
              "raise --seconds")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "step_ms_p50": (statistics.median(step_ms), "ms"),
        "step_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def layer_metrics(summary: dict, instr: Instrument, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced solution: name -> (value, unit)."""
    def pick(pred, col):
        return sum(v[col] for k, v in summary.items() if pred(k))

    def layer(name):
        return lambda k: k.split(".", 1)[0] == name

    def named(*keys):
        return lambda k: k in keys

    c = instr.counts
    steps = pick(named("dynamics.step"), 0)
    roots = pick(named(*ROOTS), 0)
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    ms = 1e3
    return {
        "minkowski.calls": (pick(layer("minkowski"), 0), "count"),
        "minkowski.self_ms": (ms * pick(layer("minkowski"), 2), "ms"),
        "worldline.queries": (pick(is_query, 0), "count"),
        "worldline.query_self_ms": (ms * pick(is_query, 2), "ms"),
        "worldline.appends": (pick(named("worldline.WorldlineHistory.append"), 0), "count"),
        "worldline.append_ms": (ms * pick(named("worldline.WorldlineHistory.append"), 1), "ms"),
        "worldline.view_builds": (pick(named("worldline.ProvisionalView.__init__"), 0), "count"),
        "worldline.view_nodes_copied": (c["view_nodes"], "count"),
        "worldline.view_build_ms": (ms * pick(named("worldline.ProvisionalView.__init__"), 1), "ms"),
        "worldline.nodes_end": (instr.nodes_end, "count"),
        "worldline.export_ms": (ms * pick(named("worldline.WorldlineHistory.export_csv"), 1), "ms"),
        "worldline.export_bytes": (c["export_bytes"], "bytes"),
        "worldline.self_ms": (ms * pick(layer("worldline"), 2), "ms"),
        "retardation.roots": (roots, "count"),
        "retardation.roots_per_step": (per_step(c["step_roots"]), "count/step"),
        "retardation.queries_per_root": (c["root_queries"] / roots if roots else 0.0,
                                         "count/root"),
        "retardation.self_ms": (ms * pick(layer("retardation"), 2), "ms"),
        "retardation.worst_residual_ratio": (instr.worst_residual_ratio, "ratio"),
        "retardation.zero_charge_roots": (c["zero_charge_roots"], "count"),
        "fields.total_faraday_calls": (pick(named("fields.total_faraday"), 0), "count"),
        "fields.kernel_calls": (pick(named("fields._kernel"), 0), "count"),
        "fields.self_ms": (ms * pick(layer("fields"), 2), "ms"),
        "dynamics.steps": (steps, "count"),
        "dynamics.force_evals_per_step": (per_step(instr.force_evals), "count/step"),
        "dynamics.diag_roots_per_step": (per_step(c["diag_roots"]), "count/step"),
        "dynamics.step_self_ms": (ms * pick(named("dynamics.step"), 2), "ms"),
        "dynamics.seed_ms": (ms * pick(named("dynamics.seed"), 1), "ms"),
        "dynamics.self_ms": (ms * pick(layer("dynamics"), 2), "ms"),
        "canonical.a_eff_calls": (pick(named("canonical.a_eff_covariant"), 0), "count"),
        "canonical.context_builds": (
            pick(named("canonical.FrozenHistoryContext.__init__"), 0), "count"),
        "canonical.bracket_calls": (pick(named("canonical.poisson_bracket"), 0), "count"),
        "canonical.self_ms": (ms * pick(layer("canonical"), 2), "ms"),
        "harness.config_ms": (ms * pick(named("harness.load_config"), 1), "ms"),
        "harness.prehistory_load_ms": (ms * pick(named("harness.load_prehistory_csv"), 1),
                                       "ms"),
        "harness.oracle_ms": (ms * pick(named("harness.action_oracle",
                                              "harness.extremality_ratio"), 1), "ms"),
        "harness.artifact_bytes": (artifact_bytes, "bytes"),
        "harness.self_ms": (ms * pick(layer("harness"), 2), "ms"),
    }


# metrics in these units are times (medians over traced solutions); every
# other per-layer metric is a count or ratio that must repeat exactly
TIMED_UNITS = ("ms", "s")


def run_traced(workload, seconds: float, tally: Tally, work: str) -> dict:
    light, traced = Instrument(tracing=False), Instrument(tracing=True)
    plain_walls, traced_walls, per_solution, first_end = [], [], [], []
    start = time.perf_counter()
    while True:
        k = len(plain_walls)
        t_pair = time.perf_counter()
        clock = speed.SpeedClock()  # one per pair: spans are read per solution
        clock.start()
        try:
            out = os.path.join(work, f"plain{k}")
            plain = solve(workload, light, out, tally, first_end)
            shutil.rmtree(out)
            out = os.path.join(work, f"traced{k}")
            traced_span = solve(workload, traced, out, tally, first_end)
        finally:
            clock.stop()
        plain_walls.append(clock.normalized(*plain))
        traced_walls.append(clock.normalized(*traced_span))
        per_solution.append(layer_metrics(traced.span_summary(clock.normalized_at),
                                          traced, _artifact_bytes(out)))
        shutil.rmtree(out)
        if time.perf_counter() - start + (time.perf_counter() - t_pair) > seconds:
            break

    metrics = {}
    for name, (value, unit) in per_solution[0].items():
        values = [m[name][0] for m in per_solution]
        if unit in TIMED_UNITS:
            metrics[name] = (statistics.median(values), unit)
        else:
            tally.check(f"{name}_repeats", all(v == value for v in values),
                        f"differs between traced solutions: {values}")
            metrics[name] = (value, unit)
    # each pair runs back to back, so its difference sees one host speed
    overhead = statistics.median(t - p for p, t in zip(plain_walls, traced_walls))
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    print(f"solution pairs {len(plain_walls)}: untraced wall_s "
          f"{statistics.median(plain_walls):.3f}, traced wall_s "
          f"{statistics.median(traced_walls):.3f}, tracing overhead {overhead:.3f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's end state in reference.json "
                             "(seed 0, workloads with a reference only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_reference and (args.seed != 0
                                 or not WORKLOADS[args.workload].has_reference):
        parser.error("--write-reference needs --seed 0 and pair_restart or ring6")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(ROOT, ".bench_work"))
    try:
        ref_before = reference_ms()
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        tally = Tally()
        runner = run_traced if args.trace else run_untraced
        metrics = runner(workload, args.seconds, tally, work)
        ref_after = reference_ms()
        if args.write_reference:
            _write_reference(workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    reference = statistics.median([ref_before, ref_after])
    print(f"machine-speed reference: {ref_before:.3f} ms before, "
          f"{ref_after:.3f} ms after")
    if args.trace:
        metrics["bench.reference_ms"] = (reference, "ms")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    for line in tally.failures:
        print(f"FAILED CHECK {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _write_reference(workload, work: str) -> None:
    instr, tally = Instrument(tracing=False), Tally()
    out = os.path.join(work, "reference")
    solve(workload, instr, out, tally, [])
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref[workload.name] = end_state(list(instr.states.values()))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
