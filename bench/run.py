#!/usr/bin/env python3
"""Benchmark of the multiboson package, measured from outside.

    python3 bench/run.py --workload small_sectors --seed 0 --seconds 15 --trace 0

Run from the repository root.  The package is imported from ``src`` (it
need not be installed).  Human-readable report lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("small_sectors", "hard_sectors", "cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 10
IMPORTTIME_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}

IMPORT_LAYERS = ("numpy", "scipy.linalg", "mpmath")
LEVEL_COUNTERS = ("extracted", "refined", "unconverged", "degenerate", "reduced")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from spans import OP_SPAN, traced_names

    units = {}
    for name in [OP_SPAN, *traced_names()]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for counter in LEVEL_COUNTERS:
        units[f"bethe.levels.{counter}"] = "count"
    units["bethe.extracted_frac"] = "ratio"
    units["bethe.max_energy_error"] = "relative"
    units["hamiltonian.conditioning_warnings"] = "count"
    for layer in (*IMPORT_LAYERS, "multiboson", "total"):
        units[f"setup.import.{layer}_s"] = "s"
    for name in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"):
        units[name] = "s"
    return units


# ----------------------------------------------------------------------
# statistics

def upper_percentile(values, q=0.9):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_once(env):
    """Wall time of a fresh interpreter running ``import multiboson``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import multiboson"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=120)
    return SimpleNamespace(seconds=time.perf_counter() - start)


def parse_importtime(stderr: str):
    """Cumulative seconds of the import layers in ``-X importtime`` output."""
    cumulative, own = {}, 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:          # the header line
            continue
        name = parts[2].strip()
        cumulative.setdefault(name, cum_us / 1e6)
        if name == "multiboson" or name.startswith("multiboson."):
            own += self_us / 1e6
    out = {f"setup.import.{layer}_s": cumulative.get(layer, 0.0) for layer in IMPORT_LAYERS}
    out["setup.import.multiboson_s"] = own
    out["setup.import.total_s"] = cumulative.get("multiboson", 0.0)
    return out


def measure_importtime(env):
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import multiboson"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True,
                              timeout=120)
        runs.append(parse_importtime(proc.stderr))
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def environment(args):
    import mpmath
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            **{var: os.environ[var] for var in THREAD_VARS}}


# ----------------------------------------------------------------------
# one run

def make_plan(workload, seed, budget_s, execute, **hard):
    import workloads as wl

    if workload == "small_sectors":
        return wl.plan_small(seed, budget_s, execute)
    if workload == "hard_sectors":
        return wl.plan_hard(seed, budget_s, execute, **hard)
    return wl.plan_cli(seed, budget_s, execute)


def totals(outcomes):
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    rejected = sum(o.rejected for o in outcomes)
    mismatches = sum(o.mismatches for o in outcomes)
    return attempted, failed, rejected, mismatches


def report(name, value, unit, detail=""):
    print(f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))


def report_sectors(label, outcomes):
    """Report lines for a set of sector operations."""
    if not outcomes:
        return
    times = [o.seconds for o in outcomes]
    levels = sum(o.attempted for o in outcomes)
    report(f"{label}levels_per_s", levels / sum(times), "levels/s",
           f"{levels} levels in {sum(times):.3f} s")
    report(f"{label}sector_s.p50", statistics.median(times), "s", f"n={len(times)}")
    p90, beyond = upper_percentile(times)
    if beyond >= 10:
        report(f"{label}sector_s.p90", p90, "s", f"n={len(times)}, {beyond} beyond")


def run_timed(args, env):
    """End-to-end metrics from an untraced run, times scaled to the
    reference speed (see reference.py); raw wall times go to the report."""
    import resource

    import workloads as wl
    from reference import SpeedProbe

    probe = SpeedProbe()
    setup_once = probe.timed(lambda: import_once(env))
    # half of the set-up samples before the workload and half after
    setups = [setup_once() for _ in range(SETUP_REPEATS // 2)]
    if args.workload == "cli":
        plan = make_plan("cli", args.seed, args.seconds,
                         probe.timed(lambda call: wl.run_cli_subprocess(call, str(ROOT), env)))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        plan = make_plan(args.workload, args.seed, args.seconds, probe.timed(wl.run_sector))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += [setup_once() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    probe.finish()

    outcomes = [o for _, o in plan.ops]
    timed = [o for o, is_timed in zip(outcomes, plan.timed) if is_timed]
    attempted, failed, rejected, mismatches = totals(outcomes)
    units = len(timed) if args.workload == "cli" else sum(o.attempted for o in timed)
    scaled = [probe.scaled(o) for o in timed]

    report("setup_s", statistics.median(s.seconds for s in setups), "s",
           f"median of {SETUP_REPEATS} fresh imports, wall")
    report("speed", probe.speed(), "x reference", f"median of {len(probe.samples)} samples")
    if args.workload == "cli":
        seconds = sum(o.seconds for o in timed)
        report("calls_per_s", len(timed) / seconds, "calls/s",
               f"{len(timed)} calls in {seconds:.3f} s")
        report("cli_call_s.p50", statistics.median(o.seconds for o in timed), "s",
               f"n={len(timed)}")
        base = "calls"
    else:
        grid = "grid." if args.workload == "hard_sectors" else ""
        report_sectors(grid, timed)
        report_sectors("random.", [o for o, t in zip(outcomes, plan.timed) if not t])
        if grid:
            report_sectors("", outcomes)
        worst = max(o.max_energy_error for o in outcomes)
        report("max_energy_error", worst, "relative")
        base = "levels"
    report("fail_frac", (failed + rejected) / attempted, "ratio",
           f"{failed} failed + {rejected} rejected of {attempted} {base}")
    report("peak_rss_mb", peak_kb / 1024, "MB")
    if mismatches:
        print(f"oracle mismatches: {mismatches}", file=sys.stderr)

    metrics = {
        "setup_s": statistics.median(probe.scaled(s) for s in setups),
        "ops_per_s": units / sum(scaled),
        "op_s.p50": statistics.median(scaled),
        "pass_frac": 1.0 - (failed + rejected) / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    return mismatches == 0, attempted, failed, metrics, END_TO_END


def level_counters(outcomes):
    counts = dict.fromkeys(LEVEL_COUNTERS, 0)
    total = 0
    for outcome in outcomes:
        for sol in outcome.solutions:
            total += 1
            counts["extracted"] += sol.source == "extracted"
            counts["refined"] += sol.source == "refined"
            counts["unconverged"] += not sol.converged
            counts["degenerate"] += sol.degenerate
            counts["reduced"] += sol.reduced
    out = {f"bethe.levels.{name}": float(n) for name, n in counts.items()}
    out["bethe.extracted_frac"] = counts["extracted"] / total if total else 0.0
    return out


def run_traced(args, env):
    """Per-layer metrics: every operation untraced, then traced."""
    import warnings

    import multiboson as mb
    import workloads as wl
    from spans import OP_SPAN, Tracer, traced_names

    layers = measure_importtime(env)
    # half the work of a timed run, since every operation runs twice
    budget = args.seconds / 2
    hard = {"random_count": wl.HARD_RANDOM_SECTORS // 2, "min_cycles": 1}
    if args.workload == "cli":
        def run_op(call, tracer=None):
            return wl.run_cli_in_process(call, tracer)
    else:
        def run_op(item, tracer=None):
            return wl.run_sector(item, tracer)

    # Each operation runs untraced and then traced, so both see the same
    # warm state; the traced run's warnings are counted.
    tracer = Tracer()
    traced = []
    conditioning = 0

    def execute(item):
        nonlocal conditioning
        outcome = run_op(item)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", mb.ConditioningWarning)
                traced.append(run_op(item, tracer))
        finally:
            tracer.uninstall()
        conditioning += sum(issubclass(w.category, mb.ConditioningWarning) for w in caught)
        return outcome

    plan = make_plan(args.workload, args.seed, budget, execute, **hard)
    untraced = [o for _, o in plan.ops]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    by_name, wall = tracer.totals()
    untraced_wall = sum(o.seconds for o in untraced)
    for name in [OP_SPAN, *traced_names()]:
        calls, self_s = by_name.get(name, (0, 0.0))
        layers[f"{name}.calls"] = float(calls)
        layers[f"{name}.self_s"] = self_s
    layers.update(level_counters(traced))
    worst = max((o.max_energy_error for o in traced if o.solutions), default=0.0)
    # JSON has no infinity; a non-finite error reads as the largest float
    layers["bethe.max_energy_error"] = worst if math.isfinite(worst) else sys.float_info.max
    layers["hamiltonian.conditioning_warnings"] = float(conditioning)
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = wall - untraced_wall

    attempted, failed, rejected, mismatches = totals(traced)
    same = ([o.fingerprint for o in untraced] == [o.fingerprint for o in traced]
            and totals(untraced) == (attempted, failed, rejected, mismatches))
    if not same:
        print("traced results differ from untraced ones", file=sys.stderr)
    self_total = sum(s for _, s in by_name.values())
    print(f"traced wall {wall:.3f} s = sum of self times {self_total:.3f} s; "
          f"untraced wall {untraced_wall:.3f} s; overhead {wall - untraced_wall:.3f} s")
    return mismatches == 0 and same, attempted, failed, layers, per_layer_units()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "multiboson" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy loads, and inherited by every child process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    env = child_env()

    print("environment " + json.dumps(environment(args)))
    run = run_traced if args.trace else run_timed
    correct, attempted, failed, values, units = run(args, env)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
