"""Command-line front end.

Subcommands:

* ``solve``          -- cross-validate one sector, emit per-level rows;
* ``scan``           -- sweep one coupling over a grid, emit long-format rows;
* ``verify-algebra`` -- run the single-mode algebra identity suite;
* ``verify-presets`` -- run the closed-form table fixtures;
* ``roots``          -- print Bethe roots (and optionally the operator
  polynomials) for one sector; a level with no passing root set is
  tagged ``unconverged`` and makes the exit status 3.

All numbers are printed with 17 significant digits so output round-trips
64-bit values; identical configuration and seed give byte-identical
output.  Exit status: 0 all checks passed, 2 malformed configuration,
3 numerical validation failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from fractions import Fraction

from . import bethe, diffop, hamiltonian
from .fock import PRESET_SHAPES, make_model, sector_from_occupations

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# Steps (stop - start) / step a scan range may take: a finer range is
# rejected before any of its points is built.
_MAX_GRID_STEPS = 10 ** 6


class ConfigError(Exception):
    """Malformed run configuration; the message names the offending field."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _parse_number(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_field(text: str, field: str, parse=_parse_number):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{field}: cannot parse {text!r} ({exc})") from None


def _parse_number_list(text: str, field: str):
    return _parse_field(
        text, field, lambda t: [_parse_number(p) for p in t.split(",") if p.strip() != ""])


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from None
    return out


def _wq_key(i: int, j: int, n_modes: int, entry: str) -> tuple:
    """0-based key of 1-based modes i, j; `entry` names a key out of range."""
    if not (1 <= i <= n_modes and 1 <= j <= n_modes):
        raise ConfigError(f"{entry} is out of range: mode numbers run 1..{n_modes}")
    return i - 1, j - 1


def _build_model(args) -> "tuple":
    """Resolve the model and sector anchor from flags / config / preset."""
    sources = [args.preset is not None, args.config is not None,
               args.r is not None or args.s is not None or args.k is not None]
    if sum(sources) != 1:
        raise ConfigError("model: supply exactly one of --preset, --config, or inline "
                          "--r/--s/--k flags")

    wq_entries = {}
    occ_text = args.occ
    g_value = args.g
    w_text = args.w

    if args.preset is not None:
        r, s, k = PRESET_SHAPES[args.preset]   # argparse's choices vet the name
    elif args.config is not None:
        kv = _read_config_file(args.config)
        try:
            r = _parse_field(kv["model.r"], "model.r", int)
            s = _parse_field(kv["model.s"], "model.s", int)
            k = _parse_number_list(kv["model.k"], "model.k")
        except KeyError as exc:
            raise ConfigError(f"config: missing key {exc.args[0]}") from None
        if "model.w" in kv and w_text is None:
            w_text = kv["model.w"]
        if "model.g" in kv and g_value is None:
            g_value = kv["model.g"]
        if "sector.occ" in kv and occ_text is None:
            occ_text = kv["sector.occ"]
        for key, value in kv.items():
            if key.startswith("model.wq."):
                parts = key.split(".")
                if len(parts) != 4:
                    raise ConfigError(f"config: bad quadratic key {key!r} "
                                      "(expected model.wq.<i>.<j>)")
                i = _parse_field(parts[2], key, int)
                j = _parse_field(parts[3], key, int)
                wq_entries[_wq_key(i, j, r + s, f"config key {key!r}")] = _parse_field(value, key)
    else:
        if args.r is None or args.s is None or args.k is None:
            raise ConfigError("model: inline form needs --r, --s, and --k")
        r, s = args.r, args.s
        k = _parse_number_list(args.k, "k")

    n = r + s
    w = _parse_number_list(w_text, "w") if w_text is not None else [0] * n
    if len(w) != n:
        raise ConfigError(f"w: expected {n} entries, got {len(w)}")
    if args.wq is not None and args.wq != "zero":
        for item in args.wq.split(";"):
            item = item.strip()
            if not item:
                continue
            try:
                key, value = item.split("=")
                i, j = key.strip().split(",")
                i, j, value = int(i), int(j), _parse_number(value)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"wq: cannot parse entry {item!r} "
                                  "(expected 'i,j=value;...')") from None
            wq_entries[_wq_key(i, j, n, f"wq: entry {item!r}")] = value
    g = _parse_field(str(g_value), "g") if g_value is not None else 0

    try:
        model = make_model(r, s, k, w=w, wq=wq_entries, g=g)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    if occ_text is None:
        raise ConfigError("occ: a sector anchor occupation vector is required")
    occ = _parse_number_list(str(occ_text), "occ")
    if len(occ) != n or any((not isinstance(m, int)) or m < 0 for m in occ):
        raise ConfigError(f"occ: expected {n} nonnegative integers")
    sector = sector_from_occupations(model, occ)
    return model, sector


def _emit(fh, fmt: str, header, rows):
    if fmt == "csv":
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    else:
        for idx, row in enumerate(rows):
            for name, value in zip(header, row):
                fh.write(f"row.{idx}.{name} = {value}\n")


def _write(args, header, rows):
    """Emit the rows to `--output` (default stdout) in `--format`."""
    if args.output is None:
        _emit(sys.stdout, args.format, header, rows)
        return
    path = args.output
    outdir = os.environ.get("MULTIBOSON_OUTPUT_DIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _emit(fh, args.format, header, rows)


def _cmd_solve(args) -> int:
    model, sector = _build_model(args)
    report = bethe.cross_validate(model, sector)
    n_top = sector.n_top
    header = ["level", "energy_oracle", "energy_bethe", "abs_diff",
              "residual_robust", "residual_bae", "n_roots", "degenerate"]
    header += [f"root{j}_{part}" for j in range(n_top) for part in ("re", "im")]
    solutions = {sol.level: sol for sol in report.solutions}
    rows = []
    for rec in report.levels:
        sol = solutions[rec.level]
        row = [_fmt(rec.level), _fmt(rec.energy_fock), _fmt(rec.energy_bethe),
               _fmt(abs(rec.energy_fock - rec.energy_bethe)),
               _fmt(rec.residual_robust), _fmt(rec.residual_bae),
               _fmt(rec.n_roots), _fmt(rec.degenerate)]
        for j in range(n_top):
            if j < len(sol.roots):
                row += [_fmt(sol.roots[j].real), _fmt(sol.roots[j].imag)]
            else:
                row += ["", ""]
        rows.append(row)
    _write(args, header, rows)
    return EXIT_OK if report.passed else EXIT_NUMERIC


def _grid(spec_text: str):
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ConfigError("range: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"range: cannot parse {spec_text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"range: start, stop and step must be finite, got {spec_text!r}")
    if step <= 0:
        raise ConfigError("range: step must be positive")
    if stop < start:
        raise ConfigError(f"range: stop is below start in {spec_text!r}")
    steps = (stop - start) / step
    if steps > _MAX_GRID_STEPS:     # inf included
        raise ConfigError(f"range: {spec_text!r} takes more than {_MAX_GRID_STEPS} steps")
    count = int(round(steps))
    if abs(start + count * step - stop) > 1e-9 * max(1.0, abs(stop)):
        count = int((stop - start) // step)
    return [start + i * step for i in range(count + 1)]


def _with_coupling(model, name: str, value: float):
    if name == "g":
        return make_model(model.r, model.s, model.k, w=model.w, wq=model.wq, g=value)
    if name.startswith("w"):
        idx = name[1:].split(".")
        if len(idx) == 1 and idx[0].isdigit():
            i = int(idx[0]) - 1
            if not 0 <= i < model.n_modes:
                raise ConfigError(f"sweep: mode index out of range in {name!r}")
            w = list(model.w)
            w[i] = value
            return make_model(model.r, model.s, model.k, w=w, wq=model.wq, g=model.g)
        if len(idx) == 2 and all(p.isdigit() for p in idx):
            i, j = int(idx[0]) - 1, int(idx[1]) - 1
            if i > j:
                i, j = j, i
            if not 0 <= i <= j < model.n_modes:
                raise ConfigError(f"sweep: mode indices out of range in {name!r}")
            wq = [list(row) for row in model.wq]
            wq[i][j] = value
            return make_model(model.r, model.s, model.k, w=model.w, wq=wq, g=model.g)
    raise ConfigError(f"sweep: unknown coupling {name!r} (use g, w<i>, or w<i>.<j>)")


def _cmd_scan(args) -> int:
    model, sector = _build_model(args)
    if args.g_range is not None:
        name, grid = "g", _grid(args.g_range)
    elif args.sweep is not None and args.range is not None:
        name, grid = args.sweep, _grid(args.range)
    else:
        raise ConfigError("scan: supply --g-range or --sweep NAME --range START:STOP:STEP")
    header = ["param", "value", "level", "energy"]
    if name == "g":   # one hop table: each point scales the block with g left out
        unit = hamiltonian._unit_fock(model, sector)
    rows = []
    for value in grid:
        block = (hamiltonian._scaled_fock(unit, value) if name == "g" else
                 hamiltonian.build_sector_matrix(_with_coupling(model, name, value), sector))
        spec = hamiltonian.diagonalize(block)
        for level, energy in enumerate(spec.energies):
            rows.append([name, _fmt(value), _fmt(level), _fmt(float(energy))])
    _write(args, header, rows)
    return EXIT_OK


def _cmd_verify_algebra(args) -> int:
    from . import polyalg   # loaded by this command alone

    if args.trunc is not None and args.trunc < 3 * args.kmax:
        raise ConfigError(f"trunc: expected at least 3 * kmax = {3 * args.kmax}, "
                          f"got {args.trunc}")
    ok = True
    lines = []
    for k in range(1, args.kmax + 1):
        report = polyalg.verify_single_mode_algebra(k, trunc=args.trunc)
        for check in report.checks:
            ok = ok and check.passed
            lines.append(f"k={k} {check.name} "
                         f"{'PASS' if check.passed else 'FAIL'} max_err={_fmt(check.max_error)}")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_verify_presets(args) -> int:
    from . import models   # loaded by this command alone

    cases = [args.case] if args.case else ["A", "B", "C"]
    ok = True
    for case in cases:
        report = models.verify_case(case, draws=args.draws, seed=args.seed)
        counts = report.counts()
        ok = ok and report.ok
        print(f"case {case}: match={counts['match']} "
              f"known-discrepancy={counts['known-discrepancy']} "
              f"mismatch={counts['MISMATCH']}")
        seen = set()
        for item in report.items:
            if item.status == "known-discrepancy" and item.name not in seen:
                seen.add(item.name)
                print(f"case {case}: {item.name} known-discrepancy ({item.detail})")
            elif item.status == "MISMATCH":
                print(f"case {case}: draw {item.draw} {item.name} MISMATCH {item.detail}")
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_roots(args) -> int:
    model, sector = _build_model(args)
    lines = []
    if args.dump_diffop:
        op = diffop.expand_diffop(model, sector)
        for i, poly in enumerate(op.p):
            coeffs = " ".join(_fmt(float(c)) for c in poly.coeffs) or "0"
            lines.append(f"P{i}: {coeffs}")
    solutions = bethe.solve_bethe(model, sector)
    if args.direct:
        solutions += bethe.direct_search(model, sector, starts=args.starts, seed=args.seed)
    for sol in solutions:
        if sol.source == "direct":
            tag = "direct"
        else:
            tag = f"level {sol.level}" + ("" if sol.converged else " unconverged")
        root_text = " ".join(f"{_fmt(a.real)}{'+' if a.imag >= 0 else '-'}{_fmt(abs(a.imag))}j"
                             for a in sol.roots) or "-"
        lines.append(f"{tag}: E={_fmt(sol.energy)} roots: {root_text}")
    print("\n".join(lines))
    return EXIT_OK if all(sol.converged for sol in solutions) else EXIT_NUMERIC


def _count(text: str, least: int = 0) -> int:
    if not text.strip().isdigit() or int(text) < least:
        raise argparse.ArgumentTypeError(f"expected a whole number >= {least}, got {text!r}")
    return int(text)


def _positive_count(text: str) -> int:
    return _count(text, least=1)


def _add_model_arguments(parser):
    parser.add_argument("--preset", choices=sorted(PRESET_SHAPES), default=None,
                        help="use a tabulated case shape")
    parser.add_argument("--config", default=None, help="flat config file with dotted keys")
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--s", type=int, default=None)
    parser.add_argument("--k", default=None, help="comma-separated interaction powers")
    parser.add_argument("--w", default=None, help="comma-separated linear couplings")
    parser.add_argument("--wq", default=None,
                        help="quadratic couplings 'i,j=value;...' (1-based, i<=j) or 'zero'")
    parser.add_argument("--g", default=None, help="interaction strength")
    parser.add_argument("--occ", default=None, help="comma-separated anchor occupations")


def _add_solver_arguments(parser):
    parser.add_argument("--seed", type=_count, default=0,
                        help="seed of the --direct search's starts")
    parser.add_argument("--direct", action="store_true",
                        help="roots: also run the independent multi-start search and "
                             "print its 'direct' rows; solve accepts the flag but "
                             "prints level rows only")
    parser.add_argument("--starts", type=_count, default=64,
                        help="starts of the --direct search (0: none)")


def _add_output_arguments(parser):
    parser.add_argument("--output", default=None,
                        help="output file (default stdout); MULTIBOSON_OUTPUT_DIR "
                             "overrides the directory for relative paths")
    parser.add_argument("--format", choices=["csv", "text"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiboson",
        description="Exact spectra of multi-mode boson Hamiltonians")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="cross-validate one sector")
    _add_model_arguments(p_solve)
    _add_solver_arguments(p_solve)
    _add_output_arguments(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_scan = sub.add_parser("scan", help="sweep one coupling over a grid")
    _add_model_arguments(p_scan)
    p_scan.add_argument("--g-range", default=None, help="start:stop:step for g")
    p_scan.add_argument("--sweep", default=None, help="coupling name: g, w<i>, or w<i>.<j>")
    p_scan.add_argument("--range", default=None, help="start:stop:step for --sweep")
    _add_output_arguments(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_alg = sub.add_parser("verify-algebra", help="single-mode algebra identity suite")
    p_alg.add_argument("--kmax", type=_positive_count, default=4)
    p_alg.add_argument("--trunc", type=int, default=None,
                       help="Fock cutoff, at least 3 * kmax (default 6k per power)")
    p_alg.set_defaults(func=_cmd_verify_algebra)

    p_pre = sub.add_parser("verify-presets", help="closed-form table fixtures")
    p_pre.add_argument("--case", choices=sorted(PRESET_SHAPES), default=None)
    p_pre.add_argument("--draws", type=_positive_count, default=50)
    p_pre.add_argument("--seed", type=_count, default=0)
    p_pre.set_defaults(func=_cmd_verify_presets)

    p_roots = sub.add_parser("roots", help="print Bethe roots for one sector")
    _add_model_arguments(p_roots)
    _add_solver_arguments(p_roots)
    p_roots.add_argument("--dump-diffop", action="store_true",
                         help="also print the operator polynomials, one per line, "
                              "ascending coefficients")
    p_roots.set_defaults(func=_cmd_roots)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:
        # OverflowError: a matrix element past float64's range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main():
    """Entry point of the `multiboson` script and `python -m multiboson.cli`."""
    try:
        code = main()
    finally:
        # the process ends next: the interpreter's final collections then
        # skip every object alive here, the imports' ~22k among them
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
