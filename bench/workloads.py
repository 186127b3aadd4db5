"""Seeded inputs, operations and independent output checks for the benchmark.

Every input comes from ``numpy.random.default_rng(seed)``; the package only
ever sees the generated couplings and occupation anchors.  Three workloads:

* ``small_sectors`` -- random general models with N in 1..15.  The float64
  extraction path serves almost every level, so per-level overhead
  (hop-polynomial expansion, block builds, residual evaluation) dominates.
* ``hard_sectors`` -- the ROADMAP grid, presets A/B/C at N=40 with fixed
  couplings, where the high-precision fallback dominates, plus random
  general models with N in 16..24 that carry the known failing levels.
* ``cli`` -- subprocess calls of ``python -m multiboson.cli``, where
  interpreter start and import dominate each call.

Each operation's result is checked against an oracle that shares no
solver code with the package: ``numpy.linalg.eigvalsh`` of the dense Fock
block assembled here from ``build_sector_matrix``'s arrays.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import multiboson as mb
from multiboson import cli as mb_cli

# Agreement the benchmark demands of outputs the program presents as valid:
# Fock energies against the dense oracle, and root energies of levels the
# program accepted (the program's own tolerance is 1e-8 of the same scale).
FOCK_TOL = 1e-10
ENERGY_TOL = 1e-8 + FOCK_TOL

SMALL_N = (1, 15)
HARD_N = (16, 24)
# Random N=16..24 sectors per hard_sectors run.  Their cost is heavy-tailed
# (levels that fall back to the high-precision route take seconds), so they
# add failure coverage and are reported, while the timed metrics of that
# workload come from the fixed preset grid.
HARD_RANDOM_SECTORS = 30
# Whole grid cycles timed per run at least: one cycle is three samples.
GRID_MIN_CYCLES = 2

# The ROADMAP grid: presets at N=40, w=(0.4,-0.3,0.2[,0.1]), w12=0.5, g=0.8.
GRID = (
    ("A", (0.4, -0.3, 0.2), (0, 3, 40)),
    ("B", (0.4, -0.3, 0.2), (0, 3, 80)),
    ("C", (0.4, -0.3, 0.2, 0.1), (0, 3, 40, 42)),
)
GRID_W12 = 0.5
GRID_G = 0.8

CLI_TIMEOUT_S = 120
# The CLI's exit code when a level fails the program's own check.
EXIT_NUMERIC = mb_cli.EXIT_NUMERIC


# ----------------------------------------------------------------------
# seeded inputs

@dataclass(frozen=True)
class SectorInput:
    """Couplings and an occupation anchor; `n_top` is the intended N."""

    r: int
    s: int
    k: tuple
    w: tuple
    wq: tuple          # ((i, j, value), ...) with 0-based i <= j
    g: float
    anchor: tuple
    n_top: int
    preset: str = ""

    def model(self):
        if self.preset:
            return mb.preset(self.preset, w=list(self.w),
                             wq={(i, j): v for i, j, v in self.wq}, g=self.g)
        return mb.make_model(self.r, self.s, self.k, w=list(self.w),
                             wq={(i, j): v for i, j, v in self.wq}, g=self.g)


def _couplings(rng, n):
    """Float couplings drawn as in the acceptance suite's three-way check."""
    w = tuple(float(x) for x in rng.uniform(-1, 1, n))
    wq = tuple((i, j, float(rng.uniform(-1, 1))) for i in range(n) for j in range(i, n))
    return w, wq, float(rng.uniform(0.1, 2.0))


def random_sector(rng, n_lo: int, n_hi: int) -> SectorInput:
    """General model with r, s, k_i in 1..3 and a sector of N in n_lo..n_hi."""
    r = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    n = r + s
    k = tuple(int(rng.integers(1, 4)) for _ in range(n))
    w, wq, g = _couplings(rng, n)
    n_top = int(rng.integers(n_lo, n_hi + 1))
    # N = min(levels of group 1) + min(levels of group 2)
    down = int(rng.integers(0, n_top + 1))
    levels = []
    for size, floor in ((r, down), (s, n_top - down)):
        extra = [int(rng.integers(0, 3)) for _ in range(size)]
        extra[int(rng.integers(0, size))] = 0
        levels += [floor + e for e in extra]
    anchor = tuple(k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n))
    return SectorInput(r, s, k, w, wq, g, anchor, n_top)


def preset_sector(rng, n_top: int, case: str) -> SectorInput:
    """Preset model with random couplings and a sector of the given N."""
    r, s, k = mb.models.PRESET_SHAPES[case]
    w, wq, g = _couplings(rng, r + s)
    b1 = int(rng.integers(0, 3))
    if case == "A":
        anchor = (b1, 0, n_top)
    elif case == "B":
        anchor = (b1, 0, 2 * n_top + int(rng.integers(0, 2)))
    else:
        anchor = (b1, 0, n_top + int(rng.integers(0, 3)), n_top)
    return SectorInput(r, s, k, w, wq, g, anchor, n_top, preset=case)


def grid_sectors():
    out = []
    for case, w, anchor in GRID:
        r, s, k = mb.models.PRESET_SHAPES[case]
        out.append(SectorInput(r, s, k, w, ((0, 1, GRID_W12),), GRID_G, anchor, 40,
                               preset=case))
    return out


# ----------------------------------------------------------------------
# the independent oracle

def oracle_energies(model, sector) -> np.ndarray:
    """Ascending eigenvalues of the dense Fock block, by numpy's eigvalsh."""
    block = mb.build_sector_matrix(model, sector)
    dense = np.diag(np.asarray(block.diag, dtype=float))
    if len(block.diag) > 1:
        dense += np.diag(block.upper, -1) + np.diag(block.lower, 1)
    return np.linalg.eigvalsh(dense)


def _scale(energies) -> float:
    return max(1.0, float(np.max(np.abs(energies)))) if len(energies) else 1.0


# ----------------------------------------------------------------------
# operations and their outcomes

@dataclass
class Outcome:
    """One operation: its wall time and what the checks made of it.

    `attempted` counts levels for sector operations and calls for CLI
    operations.  Of those, `failed` ones have no checked output: they
    crashed, timed out, or their output disagrees with the oracle.
    `rejected` ones the program itself reports as failing its own check
    (a level with `LevelRecord.ok` false, a `solve` that exits 3) while the
    output it still vouches for is right; they are the known defect and
    lower `pass_frac`.  `mismatches` counts outputs the program presented
    as valid that disagree with the oracle; any makes the run incorrect.
    """

    seconds: float
    attempted: int
    failed: int = 0
    rejected: int = 0
    mismatches: int = 0
    max_energy_error: float = 0.0
    fingerprint: tuple = ()
    solutions: tuple = ()


def _scopes(tracer):
    """(operation span, untraced scope) for an optional tracer."""
    if tracer is None:
        return contextlib.nullcontext, contextlib.nullcontext
    return tracer.operation, tracer.suspended


def run_sector(item: SectorInput, tracer=None) -> Outcome:
    """`sector_from_occupations` plus `cross_validate` on one input, checked."""
    operation, untraced = _scopes(tracer)
    with untraced():
        model = item.model()
    start = time.perf_counter()
    try:
        with operation():
            sector = mb.sector_from_occupations(model, item.anchor)
            report = mb.cross_validate(model, sector)
    except Exception:  # a crash is a failed operation, reported and counted
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Outcome(seconds, attempted=item.n_top + 1, failed=item.n_top + 1,
                       max_energy_error=math.inf)
    seconds = time.perf_counter() - start

    with untraced():
        oracle = oracle_energies(model, sector)
    scale = _scale(oracle)
    failed = rejected = mismatches = 0
    for rec, e_ref in zip(report.levels, oracle):
        fock_ok = abs(rec.energy_fock - e_ref) <= FOCK_TOL * scale
        bethe_ok = abs(rec.energy_bethe - e_ref) <= ENERGY_TOL * scale
        if not fock_ok or (rec.ok and not bethe_ok):
            mismatches += 1
            failed += 1
        elif not rec.ok:
            rejected += 1
    if len(report.levels) != len(oracle) or sector.n_top != item.n_top:
        mismatches += 1
        failed, rejected = len(report.levels), 0
    err = report.max_energy_error
    fingerprint = tuple((rec.energy_fock, rec.energy_bethe, rec.ok) for rec in report.levels)
    return Outcome(seconds, attempted=len(report.levels), failed=failed,
                   rejected=rejected, mismatches=mismatches,
                   max_energy_error=err if math.isfinite(err) else math.inf,
                   fingerprint=fingerprint, solutions=report.solutions)


# ----------------------------------------------------------------------
# CLI calls

@dataclass(frozen=True)
class CliCall:
    """One command line and the input needed to check its output."""

    argv: tuple
    kind: str
    sector: SectorInput | None = None


def _model_args(item: SectorInput):
    wq = ";".join(f"{i + 1},{j + 1}={v!r}" for i, j, v in item.wq)
    # the --name=value form keeps argparse from reading "-0.3,..." as an option
    return ["--preset", item.preset, "--w=" + ",".join(repr(x) for x in item.w),
            "--wq=" + wq, f"--g={item.g!r}", "--occ=" + ",".join(str(m) for m in item.anchor)]


def cli_cycle(rng):
    """One round of the fixed call mix, with seeded parameters."""
    def pick_case():
        return "ABC"[int(rng.integers(0, 3))]

    def pick_sector(n_lo, n_hi):
        return preset_sector(rng, int(rng.integers(n_lo, n_hi + 1)), pick_case())

    calls = []
    for _ in range(2):
        item = pick_sector(1, 24)
        calls.append(CliCall(("solve", *_model_args(item)), "solve", item))
    item = pick_sector(1, 24)
    lo = round(float(rng.uniform(0.0, 1.0)), 2)
    calls.append(CliCall(("scan", *_model_args(item), "--g-range", f"{lo}:{lo + 2.0}:0.1"),
                         "scan", item))
    item = pick_sector(1, 12)
    calls.append(CliCall(("roots", *_model_args(item), "--dump-diffop"), "roots", item))
    calls.append(CliCall(("verify-presets", "--case", pick_case(), "--draws", "5",
                          "--seed", str(int(rng.integers(0, 10_000)))), "verify-presets"))
    calls.append(CliCall(("verify-algebra", "--kmax", str(int(rng.integers(2, 5)))),
                         "verify-algebra"))
    item = pick_sector(1, 3)
    calls.append(CliCall(("solve", *_model_args(item), "--direct", "--starts", "16",
                          "--seed", str(int(rng.integers(0, 10_000)))), "solve-direct", item))
    return calls


def check_cli_output(call: CliCall, code: int, out: str):
    """(failed, rejected, mismatches) of one call.

    Exit 0: failed, and a mismatch, on any disagreement with the oracle.
    Exit 3 on `solve` means the program reports levels that fail its own
    check; the call is rejected if its Fock energies are right, and failed
    and a mismatch if not.  Any other exit is a failed call.
    """
    numeric = code == EXIT_NUMERIC and call.kind in ("solve", "solve-direct")
    if code != 0 and not numeric:
        return 1, 0, 0
    try:
        bad = _cli_disagreements(call, out, accepted=not numeric)
    except (ValueError, IndexError, KeyError):
        bad = 1
    if bad:
        return 1, 0, 1
    return (0, 1, 0) if numeric else (0, 0, 0)


def _cli_disagreements(call: CliCall, out: str, accepted: bool = True) -> int:
    """Output lines that disagree with the oracle; `accepted` is false when
    the program disowned its root energies (solve exit 3), and then only
    its Fock energies are checked."""
    lines = out.splitlines()
    if call.kind in ("solve", "solve-direct"):
        model = call.sector.model()
        oracle = oracle_energies(model, mb.sector_from_occupations(model, call.sector.anchor))
        scale = _scale(oracle)
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(oracle):
            return 1
        return sum(1 for row, e_ref in zip(rows, oracle)
                   if abs(float(row[1]) - e_ref) > FOCK_TOL * scale
                   or (accepted and abs(float(row[2]) - e_ref) > ENERGY_TOL * scale))
    if call.kind == "scan":
        start, stop, step = (float(x) for x in call.argv[-1].split(":"))
        expected = int(round((stop - start) / step)) + 1
        by_value = {}
        for line in lines[1:]:
            _, value, level, energy = line.split(",")
            by_value.setdefault(value, []).append((int(level), float(energy)))
        if len(by_value) != expected:
            return 1
        bad = 0
        for value, rows in by_value.items():
            model = replace(call.sector, g=float(value)).model()
            oracle = oracle_energies(model, mb.sector_from_occupations(model, call.sector.anchor))
            scale = _scale(oracle)
            got = [e for _, e in sorted(rows)]
            if len(got) != len(oracle):
                bad += 1
            else:
                bad += sum(1 for e, e_ref in zip(got, oracle) if abs(e - e_ref) > FOCK_TOL * scale)
        return bad
    if call.kind == "roots":
        model = call.sector.model()
        oracle = oracle_energies(model, mb.sector_from_occupations(model, call.sector.anchor))
        scale = _scale(oracle)
        p_lines = [line for line in lines if line.startswith("P")]
        level_lines = [line for line in lines if line.startswith("level ")]
        if not p_lines or len(level_lines) != len(oracle):
            return 1
        bad = 0
        for line, e_ref in zip(level_lines, oracle):
            energy = float(line.split("E=", 1)[1].split()[0])
            n_roots = len(line.split("roots:", 1)[1].split())
            expect = call.sector.n_top if call.sector.n_top else 1   # '-' for no roots
            if abs(energy - e_ref) > ENERGY_TOL * scale or n_roots != expect:
                bad += 1
        return bad
    if call.kind == "verify-presets":
        cases = [line for line in lines if line.startswith("case ") and "match=" in line]
        return 0 if cases and all("mismatch=0" in line for line in cases) else 1
    if call.kind == "verify-algebra":
        return 0 if lines and all(" PASS " in line for line in lines) else 1
    raise KeyError(call.kind)


def run_cli_subprocess(call: CliCall, root: str, env: dict) -> Outcome:
    """Run one call as ``python -m multiboson.cli``, timed from spawn to exit."""
    argv = [sys.executable, "-m", "multiboson.cli", *call.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, ""
    seconds = time.perf_counter() - start
    failed, rejected, mismatches = check_cli_output(call, code, out)
    return Outcome(seconds, attempted=1, failed=failed, rejected=rejected,
                   mismatches=mismatches, fingerprint=(code, out))


def run_cli_in_process(call: CliCall, tracer=None) -> Outcome:
    """Run one call through ``multiboson.cli.main`` with stdout captured."""
    operation, untraced = _scopes(tracer)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with operation(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mb_cli.main(list(call.argv))
    seconds = time.perf_counter() - start
    with untraced():
        failed, rejected, mismatches = check_cli_output(call, code, out.getvalue())
    return Outcome(seconds, attempted=1, failed=failed, rejected=rejected,
                   mismatches=mismatches, fingerprint=(code, out.getvalue()))


# ----------------------------------------------------------------------
# the operation sequence of each workload

@dataclass
class Plan:
    """Operations of one run, in order; `timed` marks the ones whose wall
    times make the gated timing metrics."""

    ops: list = field(default_factory=list)
    timed: list = field(default_factory=list)


def plan_small(seed: int, budget_s: float, execute) -> Plan:
    """Random N=1..15 sectors until `budget_s` of operation time is spent."""
    rng = np.random.default_rng(seed)
    plan, spent = Plan(), 0.0
    while spent < budget_s:
        item = random_sector(rng, *SMALL_N)
        outcome = execute(item)
        plan.ops.append((item, outcome))
        plan.timed.append(True)
        spent += outcome.seconds
    return plan


def plan_hard(seed: int, budget_s: float, execute, random_count: int = HARD_RANDOM_SECTORS,
              min_cycles: int = GRID_MIN_CYCLES) -> Plan:
    """Whole cycles of the N=40 grid until `budget_s` is spent (at least
    `min_cycles`), then `random_count` seeded random N=16..24 sectors."""
    plan, spent, cycles = Plan(), 0.0, 0
    while spent < budget_s or cycles < min_cycles:
        cycles += 1
        for item in grid_sectors():
            outcome = execute(item)
            plan.ops.append((item, outcome))
            plan.timed.append(True)
            spent += outcome.seconds
    rng = np.random.default_rng(seed)
    for _ in range(random_count):
        item = random_sector(rng, *HARD_N)
        plan.ops.append((item, execute(item)))
        plan.timed.append(False)
    return plan


def plan_cli(seed: int, budget_s: float, execute) -> Plan:
    """Whole cycles of the call mix until `budget_s` is spent."""
    rng = np.random.default_rng(seed)
    plan, spent = Plan(), 0.0
    while spent < budget_s:
        for call in cli_cycle(rng):
            outcome = execute(call)
            plan.ops.append((call, outcome))
            plan.timed.append(True)
            spent += outcome.seconds
    return plan

