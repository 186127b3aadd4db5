"""Command-line behavior: outputs, determinism, and exit codes."""

import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import multiboson
from multiboson import bethe
from multiboson.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_micro_case(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--preset", "A", "--w", "0,0,0", "--wq", "zero",
        "--g", "1", "--occ", "0,0,1"])
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["level", "energy_oracle", "energy_bethe", "abs_diff"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    energies = sorted(float(row[1]) for row in rows)
    assert energies == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert all(float(row[3]) < 1e-10 for row in rows)


def test_scan_grid_and_g_zero_limit(capsys):
    code, out, _ = _run(capsys, [
        "scan", "--preset", "C", "--g-range", "0:2:0.1", "--occ", "1,1,0,0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,level,energy"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 21 * 2
    at_zero = [row for row in rows if float(row[1]) == 0.0]
    assert sorted(float(row[3]) for row in at_zero) == [0.0, 0.0]


SCAN_C12 = ["scan", "--preset", "C", "--w=0.4,-0.3,0.2,0.1", "--wq=1,2=0.5",
            "--g-range=-0.5:1.5:0.1", "--occ=0,3,12,14"]


def test_scan_over_g_reads_one_hop_table(capsys, monkeypatch):
    """A g sweep builds the sector's hop table and Fock block once, at
    g = 1, and scales the off-diagonal by each point's g: one
    `_hop_factors` call for 21 points, where a table per point made 21,
    and every printed energy is, byte for byte, that of the block
    `build_sector_matrix` builds at the point's g."""
    calls = []
    hop_factors = multiboson.diffop._hop_factors
    monkeypatch.setattr(multiboson.diffop, "_hop_factors",
                        lambda *args: calls.append(args) or hop_factors(*args))
    code, out, _ = _run(capsys, SCAN_C12)
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    model = multiboson.preset("C", w=[0.4, -0.3, 0.2, 0.1], wq={(0, 1): 0.5})
    sector = multiboson.sector_from_occupations(model, (0, 3, 12, 14))
    want = ["param,value,level,energy"]
    for g in multiboson.cli._grid("-0.5:1.5:0.1"):
        block = multiboson.build_sector_matrix(multiboson.cli._with_coupling(model, "g", g), sector)
        want += [f"g,{multiboson.cli._fmt(g)},{level},{multiboson.cli._fmt(float(energy))}"
                 for level, energy in enumerate(multiboson.diagonalize(block).energies)]
    assert out.splitlines() == want and len(want) == 1 + 21 * sector.dim


def test_scan_over_g_warns_at_each_point_it_should(capsys):
    """Each point of a g sweep whose Fock block `build_sector_matrix` would
    warn about warns once, and no other: the block at g = 1 that every
    point scales warns for no point.  Here its entries pass 1e12 at g = 1
    and at g = 0.6, and not at g = 0.2 or 0.4."""
    model = multiboson.make_model(1, 1, (5, 5), g=1)
    sector = multiboson.sector_from_occupations(model, (0, 600))
    argv = ["scan", "--r", "1", "--s", "1", "--k", "5,5", "--occ=0,600", "--g-range", "0.2:0.6:0.2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
        assert [w.category for w in caught] == [multiboson.ConditioningWarning]
        assert "0.6" in capsys.readouterr().out
        for g, warns in ((0.2, False), (0.4, False), (0.6, True), (1, True)):
            caught.clear()
            multiboson.build_sector_matrix(multiboson.cli._with_coupling(model, "g", g), sector)
            assert len(caught) == warns


def test_scan_sweep_linear_coupling(capsys):
    code, out, _ = _run(capsys, [
        "scan", "--preset", "A", "--sweep", "w1", "--range", "0:1:0.5",
        "--g", "0", "--occ", "0,0,1"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3 * 2
    # with only w1 swept and g=0, the top level is w1 * occupation of mode 1
    top = [float(r[3]) for r in rows if r[2] == "1"]
    assert top == pytest.approx([0.0, 0.5, 1.0])


def test_verify_algebra(capsys):
    code, out, _ = _run(capsys, ["verify-algebra", "--kmax", "3"])
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 9


def test_verify_presets(capsys):
    code, out, _ = _run(capsys, ["verify-presets", "--case", "B", "--draws", "4"])
    assert code == 0
    assert "mismatch=0" in out
    assert "known-discrepancy" in out


def test_roots_dump_diffop(capsys):
    code, out, _ = _run(capsys, [
        "roots", "--preset", "A", "--g", "1", "--occ", "0,0,1", "--dump-diffop"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("P0:")
    assert lines[1].startswith("P1:")
    assert lines[2].startswith("P2:")
    assert any(line.startswith("level 0:") for line in lines)


SOLVE_ARGS = ["solve", "--preset", "B", "--w", "0.25,-0.5,0.125", "--wq", "1,3=0.5;3,3=-0.25",
              "--g", "1.5", "--occ", "2,1,4", "--seed", "7", "--direct", "--starts", "12"]


def test_solve_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(SOLVE_ARGS + ["--output", str(out1)]) == 0
    assert main(SOLVE_ARGS + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_scan_deterministic_bytes(tmp_path, capsys):
    argv = ["scan", "--preset", "C", "--g-range", "0:1:0.25", "--occ", "2,1,1,3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_output_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MULTIBOSON_OUTPUT_DIR", str(tmp_path))
    assert main(["scan", "--preset", "A", "--g-range", "0:1:1", "--occ", "0,0,1",
                 "--output", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()
    capsys.readouterr()


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# three-mode run\n"
        "model.r = 2\n"
        "model.s = 1\n"
        "model.k = 1,1,1\n"
        "model.w = 0,0,0\n"
        "model.wq.1.2 = 0\n"
        "model.g = 1\n"
        "sector.occ = 0,0,1\n")
    code, out, _ = _run(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    """A config file that does not decode as UTF-8 is a configuration error
    that names the file, as an unreadable one is, not a numerical failure."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"model.r = 2\n\xff\n")
    code, _, err = _run(capsys, ["solve", "--config", str(cfg)])
    assert code == 2
    assert f"config: cannot read {str(cfg)!r}" in err


def test_text_format(capsys):
    code, out, _ = _run(capsys, [
        "solve", "--preset", "A", "--g", "1", "--occ", "0,0,1", "--format", "text"])
    assert code == 0
    assert "row.0.energy_oracle = " in out


@pytest.mark.parametrize("argv,needle", [
    (["solve", "--preset", "A", "--g", "1"], "occ"),
    (["solve", "--g", "1", "--occ", "0,0,1"], "model"),
    (["solve", "--preset", "A", "--r", "2", "--g", "1", "--occ", "0,0,1"], "model"),
    (["solve", "--preset", "A", "--g", "1", "--occ", "0,0"], "occ"),
    (["solve", "--preset", "A", "--wq", "oops", "--g", "1", "--occ", "0,0,1"], "wq"),
    (["scan", "--preset", "A", "--occ", "0,0,1"], "scan"),
    (["scan", "--preset", "A", "--g-range", "0:2", "--occ", "0,0,1"], "range"),
    (["solve", "--preset", "A", "--g", "abc", "--occ", "0,0,1"], "g: cannot parse"),
    (["solve", "--preset", "A", "--g", "1/0", "--occ", "0,0,1"], "g: cannot parse"),
    (["solve", "--config", "model.r = x\nmodel.s = 1\nmodel.k = 1,1,1\n"
      "model.g = 1\nsector.occ = 0,0,1\n"], "model.r: cannot parse"),
    (["solve", "--config", "model.r = 2\nmodel.s = 1\nmodel.k = 1,1,1\n"
      "model.wq.a.2 = 1\nmodel.g = 1\nsector.occ = 0,0,1\n"], "model.wq.a.2: cannot parse"),
    # a non-integral power is rejected, not truncated to k=(1, 1, 1)
    (["solve", "--r", "2", "--s", "1", "--k", "1.5,1,1", "--g", "1", "--occ", "0,3,4"],
     "k must be integers"),
    (["solve", "--r", "2", "--s", "1", "--k", "3/2,1,1", "--g", "1", "--occ", "0,3,4"],
     "k must be integers"),
    (["scan", "--preset", "A", "--g-range", "0:inf:0.1", "--occ", "0,0,2"], "must be finite"),
    (["scan", "--preset", "A", "--g-range", "0:nan:0.1", "--occ", "0,0,2"], "must be finite"),
    (["scan", "--preset", "A", "--sweep", "w1", "--range", "nan:1:0.5", "--occ", "0,0,2"],
     "must be finite"),
    # an infinite coupling once reached the eigensolver and exited 3
    (["solve", "--preset", "A", "--w=inf,0,0", "--occ=0,0,3"], "couplings must be finite"),
    # a range that runs backwards once scanned nothing and exited 0
    (["scan", "--preset", "A", "--g-range", "1:0:0.1", "--occ", "0,0,2"], "below start"),
    (["scan", "--preset", "A", "--sweep", "w1", "--range", "1:0.5:0.1", "--occ", "0,0,2"],
     "below start"),
    # mode numbers are 1..r+s: 0 once wrapped round to w33, 4 raised an
    # IndexError, and 0,2 was reported as a lower-triangle entry
    (["solve", "--preset", "A", "--wq=0,0=0.5", "--g=0.8", "--occ=0,3,3"], "out of range"),
    (["solve", "--preset", "A", "--wq=4,4=1", "--g=0.8", "--occ=0,3,3"], "out of range"),
    (["solve", "--preset", "A", "--wq=0,2=0.5", "--g=0.8", "--occ=0,3,3"], "out of range"),
    (["solve", "--config", "model.r = 2\nmodel.s = 1\nmodel.k = 1,1,1\n"
      "model.wq.0.0 = 0.5\nmodel.g = 1\nsector.occ = 0,0,1\n"], "out of range"),
])
def test_malformed_config_exit_code(capsys, tmp_path, argv, needle):
    # an argument holding newlines is the text of a config file
    cfg = tmp_path / "run.cfg"
    for i, arg in enumerate(argv):
        if "\n" in arg:
            cfg.write_text(arg)
            argv = argv[:i] + [str(cfg)] + argv[i + 1:]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("argv,message", [
    (["solve", "--preset", "A", "--wq=0,0=0.5", "--g=0.8", "--occ=0,3,3"],
     "wq: entry '0,0=0.5' is out of range: mode numbers run 1..3"),
    (["solve", "--preset", "A", "--wq=4,4=1", "--g=0.8", "--occ=0,3,3"],
     "wq: entry '4,4=1' is out of range: mode numbers run 1..3"),
    (["solve", "--preset", "A", "--wq=0,2=0.5", "--g=0.8", "--occ=0,3,3"],
     "wq: entry '0,2=0.5' is out of range: mode numbers run 1..3"),
    (["solve", "--config", "model.r = 2\nmodel.s = 1\nmodel.k = 1,1,1\n"
      "model.wq.4.4 = 0.5\nmodel.g = 1\nsector.occ = 0,0,1\n"],
     "config key 'model.wq.4.4' is out of range: mode numbers run 1..3"),
])
def test_wq_out_of_range_names_the_entry_as_typed(capsys, tmp_path, argv, message):
    """An out-of-range quadratic coupling is named as the user typed it,
    with the 1-based range 1..r+s, not as `make_model`'s 0-based key
    ("wq key (3, 3) ... run 0..2" for 4,4 once, "(-1, -1)" for 0,0)."""
    if argv[1] == "--config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[2])
        argv = argv[:2] + [str(cfg)]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert message in err


def test_numerical_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(bethe, "_ENERGY_TOL", 0.0)
    code, _, _ = _run(capsys, [
        "solve", "--preset", "B", "--w", "0.3,0.2,-0.1", "--g", "0.9",
        "--occ", "2,1,4"])
    assert code == 3


HUGE_OCC = f"--occ={10 ** 40},0,{10 ** 40},5"


@pytest.mark.parametrize("argv", [
    ["solve", "--r", "2", "--s", "2", "--k", "9,1,9,1", "--g", "1", HUGE_OCC],
    ["scan", "--r", "2", "--s", "2", "--k", "9,1,9,1", "--g", "1", HUGE_OCC,
     "--sweep", "w1", "--range", "0:0.2:0.1"],
    ["solve", "--r", "2", "--s", "2", "--k", "5,1,5,1", "--g", "1",
     f"--occ={10 ** 50},0,{10 ** 50},5"],
])
def test_matrix_element_past_float_range_exits_3(capsys, argv):
    """A Fock matrix element past float64's range is a numerical failure:
    'error: ...' on stderr and exit 3, not an OverflowError traceback and
    exit 1.  So is a monomial block whose A(n) C(n+1) overflows, where
    the Fock element, its root, does not (the last case: about 2.2e250),
    and not a RuntimeWarning from the product."""
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err.startswith("error: ")


A40_SOLVE = ["solve", "--preset", "A", "--w=0.4,-0.3,0.2", "--wq=1,2=0.5", "--g=0.8",
             "--occ=0,3,40"]


@pytest.mark.parametrize("flag", [["--tol", "1e-6"], ["--max-iter", "5"]])
def test_removed_search_settings_are_rejected(capsys, flag):
    """The residual certificate and the direct search's Newton step count
    are fixed: `--tol` and `--max-iter` are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(A40_SOLVE + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "roots"])
def test_energy_tolerance_is_not_a_flag(capsys, command):
    """The energy agreement tolerance is a fixed 1e-8, like the residual
    certificate: `--energy-tol` is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([command] + A40_SOLVE[1:] + ["--energy-tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_roots_tags_unconverged_levels_and_exits_3(capsys):
    """On preset C at N=100, g = 0.8, 32 levels miss the 1e-10 residual
    certificate (their float64 residual overflows): `roots` tags exactly
    the levels `cross_validate` fails and exits 3.  Converged lines keep
    their form, and every line keeps `E=` and `roots:`."""
    code, out, _ = _run(capsys, ["roots", "--preset", "C", "--w=0.4,-0.3,0.2,0.1",
                                 "--wq=1,2=0.5", "--g=0.8", "--occ=0,3,100,102"])
    assert code == 3
    lines = out.strip().splitlines()
    model = multiboson.preset("C", w=[0.4, -0.3, 0.2, 0.1], wq={(0, 1): 0.5}, g=0.8)
    report = bethe.cross_validate(
        model, multiboson.sector_from_occupations(model, (0, 3, 100, 102)))
    sols = report.solutions
    assert len(lines) == len(sols) == 101
    unconverged = [sol.level for sol in sols if not sol.converged]
    assert len(unconverged) == 32
    assert unconverged == [rec.level for rec in report.failing_levels()]
    for line, sol in zip(lines, sols):
        tag = f"level {sol.level}" + ("" if sol.converged else " unconverged")
        assert line.startswith(f"{tag}: E={multiboson.cli._fmt(sol.energy)} roots: ")


@pytest.mark.parametrize("argv, code", [
    (["--preset", "A", "--w=0.4,-0.3,0.2", "--wq=1,2=0.5", "--g=0.01", "--occ=0,3,40"], 0),
    (["--preset", "C", "--w=0.4,-0.3,0.2,0.1", "--wq=1,2=0.5", "--g=0.8",
      "--occ=0,3,100,102"], 3),
])
def test_roots_and_solve_exit_alike(capsys, argv, code):
    """`roots` exits by the levels' `converged` flags and `solve` by
    `cross_validate`'s verdict, which are one certificate: every level of
    A40 at g = 1e-2 passes it, and 32 levels of C100 at g = 0.8 miss it."""
    assert [_run(capsys, [command, *argv])[0] for command in ("roots", "solve")] == [code, code]


def test_negative_starts_are_rejected(capsys):
    """A negative start count once printed a 'direct:' row for this N = 0
    sector, as if a search had run, and exited 0."""
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--preset", "A", "--g", "1", "--occ", "0,0,0", "--direct",
              "--starts", "-3"])
    assert exc.value.code == 2
    assert "--starts" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-presets", "--case", "A", "--draws", "0"],
    ["verify-presets", "--case", "A", "--draws", "-2"],
    ["verify-algebra", "--kmax", "0"],
    ["verify-algebra", "--kmax", "-1"],
])
def test_verification_that_checks_nothing_is_rejected(capsys, argv):
    """No draw or no power checks nothing: --draws 0 once printed
    'match=0 ... mismatch=0' and --kmax 0 printed nothing, and both exited 0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["verify-presets", "--case", "A", "--seed", "-1"], "--seed"),
    (["roots", "--preset", "A", "--g", "1", "--occ", "0,0,3", "--direct", "--seed", "-1"],
     "--seed"),
    (["solve", "--preset", "A", "--g", "1", "--occ", "0,0,3", "--seed", "-1"], "--seed"),
    (["verify-algebra", "--trunc", "0"], "trunc"),
    (["verify-algebra", "--kmax", "4", "--trunc", "5"], "trunc"),
])
def test_usage_errors_exit_2(capsys, argv, needle):
    """A negative seed and a Fock cutoff below 3 * kmax are usage errors:
    the first two once exited 3 (numerical failure), as did both cutoffs,
    and solve ignored the seed and exited 0."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert needle in capsys.readouterr().err


def test_inline_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.r = 2\nmodel.s = 1\nmodel.k = 1,1,1\n"
        "model.w = 9,9,9\nmodel.g = 0\nsector.occ = 0,0,2\n")
    code, out, _ = _run(capsys, [
        "solve", "--config", str(cfg), "--w", "0,0,0", "--g", "1", "--occ", "0,0,1"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert sorted(float(r[1]) for r in rows) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_scan_quadratic_coupling_sweep(capsys):
    code, out, _ = _run(capsys, [
        "scan", "--preset", "A", "--sweep", "w1.1", "--range", "0:1:0.5",
        "--g", "0", "--occ", "0,0,2"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # top level has occupations (2,2,0): energy = w11 * 4
    top = [float(r[3]) for r in rows if r[2] == "2"]
    assert top == pytest.approx([0.0, 2.0, 4.0])


def _fresh_python(code):
    """Stripped stdout of `code` run in a fresh interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(multiboson.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.strip()


def test_solve_and_scan_load_neither_scipy_nor_mpmath():
    """A `solve` of preset A at N=30, then a `scan`, run in one fresh
    process: blocks are diagonalized, and roots found, with numpy alone."""
    code = (
        "import contextlib, io, sys\n"
        "from multiboson.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['solve', '--preset', 'A', '--w=0.4,-0.3,0.2',\n"
        "                   '--wq=1,2=0.5', '--g=0.8', '--occ=0,3,30']),\n"
        "             main(['scan', '--preset', 'C', '--g-range', '0:1:0.5',\n"
        "                   '--occ', '2,1,1,3'])]\n"
        "print(codes, sorted(name for name in sys.modules\n"
        "                    if name.split('.')[0] in ('scipy', 'mpmath')))\n")
    assert _fresh_python(code) == "[0, 0] []"


def test_package_loads_no_numpy_polynomial():
    """The residual kernels write out `numpy.polynomial`'s Horner sweep and
    derivative, so importing the package and its CLI, and solving a
    sector, leave that subpackage unloaded (about 0.75 MB of RSS)."""
    code = (
        "import sys\n"
        "import multiboson, multiboson.cli\n"
        "model = multiboson.preset('A', w=[0.4, -0.3, 0.2], g=0.8)\n"
        "sector = multiboson.sector_from_occupations(model, (0, 3, 12))\n"
        "assert multiboson.cross_validate(model, sector).passed\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n")
    assert _fresh_python(code) == "[]"


def _loaded_package_modules(argv):
    """Code that runs `import multiboson, multiboson.cli` and then `main` on
    each argv, and prints the exit codes and the loaded `multiboson.models`
    and `multiboson.polyalg`."""
    return ("import contextlib, io, sys\n"
            "import multiboson, multiboson.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [multiboson.cli.main(argv) for argv in {argv!r}]\n"
            "print(codes, sorted(name for name in sys.modules\n"
            "                    if name in ('multiboson.models', 'multiboson.polyalg')))\n")


SOLVE_A12 = ["solve", "--preset", "A", "--w=0.4,-0.3,0.2", "--wq=1,2=0.5", "--g=0.8",
             "--occ=0,3,12"]


@pytest.mark.parametrize("argvs, loaded", [
    ([], []),
    ([SOLVE_A12, ["scan", "--preset", "C", "--g-range", "0:1:0.5", "--occ", "2,1,1,3"],
      ["roots", "--preset", "B", "--g", "1", "--occ", "0,0,4", "--dump-diffop"]], []),
    ([["verify-algebra", "--kmax", "2"]], ["multiboson.polyalg"]),
    ([["verify-presets", "--case", "A", "--draws", "2"]], ["multiboson.models"]),
], ids=["import", "solve-scan-roots", "verify-algebra", "verify-presets"])
def test_a_command_loads_only_the_modules_it_uses(argvs, loaded):
    """`models` and `polyalg` load on first use: importing the package and
    its CLI, and solving, scanning or printing roots, loads neither;
    each verify command loads its own module alone."""
    codes = [0] * len(argvs)
    assert _fresh_python(_loaded_package_modules(argvs)) == f"{codes} {loaded}"


# The public names of `dir(multiboson)` when the package loaded all its
# modules at import, by the module each comes from; "" marks the
# submodules themselves.
PACKAGE_NAMES = {
    "": ("bethe", "diffop", "fock", "hamiltonian", "models", "polyalg"),
    "bethe": ("BetheSolution", "ValidationReport", "bethe_residuals", "canonicalize_roots",
              "cross_validate", "direct_search", "energy_from_roots", "robust_residuals",
              "solve_bethe"),
    "diffop": ("DiffOpForm", "Polynomial", "apply_to_polynomial", "expand_diffop",
               "falling_factorial_coefficients", "hop_values"),
    "fock": ("ModeLabel", "ModelSpec", "Sector", "base_number_values", "label_t",
             "make_model", "occupations_at", "q_from_occupation", "sector_from_occupations"),
    "hamiltonian": ("ConditioningWarning", "SpectrumResult", "TridiagonalBlock",
                    "build_monomial_matrix", "build_sector_matrix", "diagonalize",
                    "transition_element"),
    "models": ("KNOWN_DISCREPANCIES", "discrepancy_delta", "preset",
               "tabulated_bae_residuals", "tabulated_coefficients", "tabulated_energy",
               "tabulated_operator_polys", "verify_case"),
    "polyalg": ("LadderCoefficients", "TruncatedGeneratorSet", "boson_generators",
                "casimir_value", "ladder_coefficients", "lowering_amplitude",
                "phi_polynomial", "raising_amplitude", "verify_single_mode_algebra"),
}


def test_every_package_name_resolves_to_its_modules_own_object(monkeypatch):
    """Every name the package exported when it loaded all its modules is
    still listed by `dir`, still given by `from multiboson import *`, and
    is its module's own object, read from the module on each access: a
    function patched there is the one the package gives.  An unknown name
    is an AttributeError."""
    import importlib

    names = {name for module_names in PACKAGE_NAMES.values() for name in module_names}
    assert set(dir(multiboson)) >= names | {"__version__"}
    star = {}
    exec("from multiboson import *", star)
    assert set(star) - {"__builtins__"} == names
    for module, module_names in PACKAGE_NAMES.items():
        for name in module_names:
            want = importlib.import_module(f"multiboson.{module or name}")
            assert getattr(multiboson, name) is (want if not module else getattr(want, name))
    monkeypatch.setattr(multiboson.models, "preset", "patched")
    assert multiboson.preset == "patched"
    from multiboson import casimir_value, preset
    assert (casimir_value, preset) == (multiboson.polyalg.casimir_value, "patched")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        multiboson.no_such_name
    with pytest.raises(ImportError):
        from multiboson import no_such_name  # noqa: F401


def test_exported_functions_have_eleven_optional_parameters():
    """The optional parameters of the exported functions, counted by
    `inspect.signature` over `dir(multiboson)`, stay at 11."""
    import inspect

    functions = [getattr(multiboson, name) for name in dir(multiboson)
                 if not name.startswith("_")]
    assert sum(param.default is not param.empty
               for func in functions if inspect.isfunction(func)
               for param in inspect.signature(func).parameters.values()) == 11


def test_console_main_prints_what_main_prints(tmp_path, capsys):
    """`python -m multiboson.cli` runs `console_main`: a passing solve, a
    malformed configuration (exit 2) and a solve of a cell that fails
    levels (the order-4 cell of `KNOWN_FAILING`, exit 3) print the same
    output and exit with the same status as `main` in process, which
    freezes nothing."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.r = 2\nmodel.s = 1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(multiboson.__file__).parents[1])}
    frozen = gc.get_freeze_count()
    for argv, code in ((SOLVE_A12, 0), (["solve", "--config", str(cfg)], 2),
                       (["solve", "--r", "2", "--s", "1", "--k", "2,2,3", "--w=0.4,-0.3,0.2",
                         "--wq=1,2=0.5", "--g=0.8", "--occ=0,1,180"], 3)):
        proc = subprocess.run([sys.executable, "-m", "multiboson.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        in_process = _run(capsys, argv)
        assert in_process[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process
    assert gc.get_freeze_count() == frozen


def test_console_main_freezes_once_the_command_has_returned(monkeypatch):
    """The freeze comes after the command, so the command's own garbage
    stays collectable, and before the exit, whose status is main's."""
    events = []
    monkeypatch.setattr(multiboson.cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exit_info:
        multiboson.cli.console_main()
    assert (events, exit_info.value.code) == (["main", "freeze"], 3)
