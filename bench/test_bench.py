"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_same_seed_same_inputs():
    def inputs(seed):
        rng = np.random.default_rng(seed)
        return ([wl.random_sector(rng, *wl.SMALL_N) for _ in range(20)]
                + [wl.random_sector(rng, *wl.HARD_N) for _ in range(5)]
                + wl.cli_cycle(rng))

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    for item in inputs(3)[:25]:
        sector = wl.mb.sector_from_occupations(item.model(), item.anchor)
        assert sector.n_top == item.n_top


def test_traced_run_matches_untraced():
    rng = np.random.default_rng(0)
    items = [wl.random_sector(rng, *wl.SMALL_N) for _ in range(6)]
    calls = wl.cli_cycle(rng)
    untraced = ([wl.run_sector(item) for item in items]
                + [wl.run_cli_in_process(call) for call in calls])
    tracer = Tracer()
    tracer.install()
    try:
        traced = ([wl.run_sector(item, tracer) for item in items]
                  + [wl.run_cli_in_process(call, tracer) for call in calls])
    finally:
        tracer.uninstall()
    assert [o.fingerprint for o in traced] == [o.fingerprint for o in untraced]
    assert [(o.attempted, o.failed, o.rejected, o.mismatches) for o in traced] == \
        [(o.attempted, o.failed, o.rejected, o.mismatches) for o in untraced]
    by_name, wall = tracer.totals()
    assert by_name["bench.op"][0] == len(items) + len(calls)
    assert by_name["bethe.cross_validate"][0] >= len(items)
    # names bound by `from .x import f` are traced too
    assert by_name["bethe.solve_bethe"][0] > 0
    assert by_name["hamiltonian.build_monomial_matrix"][0] > 0
    assert abs(sum(s for _, s in by_name.values()) - wall) < 1e-6 * max(1.0, wall)
    assert not hasattr(wl.mb.cross_validate, "__wrapped__")


def test_cli_check_flags_wrong_output():
    rng = np.random.default_rng(1)
    call = next(c for c in wl.cli_cycle(rng) if c.kind == "solve")
    result = wl.run_cli_in_process(call)
    code, out = result.fingerprint
    assert (code, result.failed, result.rejected, result.mismatches) == (0, 0, 0, 0)
    header, first, *rest = out.splitlines()

    def corrupt(column):
        fields = first.split(",")
        fields[column] = repr(float(fields[column]) + 1.0)
        return "\n".join([header, ",".join(fields), *rest])

    wrong_bethe, wrong_fock = corrupt(2), corrupt(1)
    assert wl.check_cli_output(call, 0, wrong_bethe) == (1, 0, 1)
    assert wl.check_cli_output(call, 0, wrong_fock) == (1, 0, 1)
    # exit 3: the program disowns its root energies, so only Fock ones count
    assert wl.check_cli_output(call, 3, wrong_bethe) == (0, 1, 0)
    assert wl.check_cli_output(call, 3, wrong_fock) == (1, 0, 1)
    assert wl.check_cli_output(call, 2, out) == (1, 0, 0)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key, workload in (("0", "end_to_end", "small_sectors"),
                                 ("1", "per_layer", "small_sectors"),
                                 ("1", "per_layer", "cli")):
        proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "cli", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_speed_probe_scales_by_the_samples_around_each_operation(monkeypatch):
    import reference

    samples = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(reference, "time_reference", lambda: next(samples))
    probe = reference.SpeedProbe()
    run = probe.timed(lambda seconds: wl.Outcome(seconds, attempted=1))
    first, second, third = run(0.6), run(0.6), run(0.5)
    probe.finish()
    ref = reference.REFERENCE_S
    assert probe.scaled(first) == 0.6 * ref / (0.02 * 0.04) ** 0.5
    assert probe.scaled(second) == 0.6 * ref / (0.02 * 0.04) ** 0.5
    assert probe.scaled(third) == 0.5 * ref / (0.04 * 0.01) ** 0.5
