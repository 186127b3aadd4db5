"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (the verbose listing is the
per-criterion pass/fail report; each test also prints a summary line).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from multiboson import (KNOWN_DISCREPANCIES, casimir_value, cross_validate, expand_diffop,
                        make_model, occupations_at, robust_residuals, bethe_residuals,
                        sector_from_occupations, solve_bethe, verify_case,
                        verify_single_mode_algebra)
from multiboson.bethe import _monic_from_roots
from numpy.polynomial import polynomial as npoly
from oracles import (bfs_sector_states, hop_polynomials, lower_move, occupations_below,
                     poly_value, raise_move, subset_bae_residuals)


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, detail


def test_criterion_1_algebra_identities():
    """k = 1..4: ladder, closure, Casimir within 1e-12; C(2) = 3/16; < 1 s."""
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 5):
        report = verify_single_mode_algebra(k, trunc=6 * k)
        assert report.passed, [c for c in report.checks if not c.passed]
        worst = max(worst, max(c.max_error for c in report.checks))
    assert casimir_value(2) == Fraction(3, 16)
    elapsed = time.perf_counter() - start
    _report("1 algebra identities", worst <= 1e-12 and elapsed < 1.0,
            f"(max_err={worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_qes_closure():
    """200 random sectors (r,s <= 3, k_i <= 3, N <= 15): A(N) = C(0) = 0 exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        k = [int(rng.integers(1, 4)) for _ in range(r + s)]
        n = r + s
        w = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 6))) for _ in range(n)]
        wq = {(i, j): Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 6)))
              for i in range(n) for j in range(i, n)}
        g = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        model = make_model(r, s, k, w=w, wq=wq, g=g)
        levels = [int(rng.integers(0, 8)) for _ in range(n)]
        anchor = [k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n)]
        sec = sector_from_occupations(model, anchor)
        if sec.n_top > 15:
            continue
        hop_a, _, hop_c = hop_polynomials(model, sec)
        assert poly_value(hop_a, sec.n_top) == 0
        assert poly_value(hop_c, 0) == 0
        checked += 1
    elapsed = time.perf_counter() - start
    _report("2 QES closure", elapsed < 1.0, f"(200 sectors, {elapsed:.2f}s)")


def _random_threeway_case(rng, index):
    kind = index % 4
    if kind < 3:
        case = "ABC"[kind]
        from multiboson.models import PRESET_SHAPES

        r, s, k = PRESET_SHAPES[case]
        n = r + s
        model = make_model(r, s, k, w=rng.uniform(-1, 1, n),
                           wq={(i, j): rng.uniform(-1, 1) for i in range(n)
                               for j in range(i, n)},
                           g=rng.uniform(0.1, 2.0))
        b1 = int(rng.integers(0, 3))
        if case == "A":
            anchor = (b1, 0, int(rng.integers(1, 21)))
        elif case == "B":
            anchor = (b1, 0, 2 * int(rng.integers(1, 16)) + int(rng.integers(0, 2)))
        else:
            n_top = int(rng.integers(1, 16))
            anchor = (b1, 0, n_top + int(rng.integers(0, 3)), n_top)
        return model, sector_from_occupations(model, anchor)
    r = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    k = [int(rng.integers(1, 4)) for _ in range(r + s)]
    n = r + s
    model = make_model(r, s, k, w=rng.uniform(-1, 1, n),
                       wq={(i, j): rng.uniform(-1, 1) for i in range(n) for j in range(i, n)},
                       g=rng.uniform(0.1, 2.0))
    levels = [int(rng.integers(0, 4)) for _ in range(n)]
    anchor = [k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n)]
    return model, sector_from_occupations(model, anchor)


def test_criterion_3_threeway_spectral_agreement():
    """100 random models: Fock, monomial, and Bethe energies agree to 1e-8."""
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_energy = 0.0
    worst_residual = 0.0
    for index in range(100):
        model, sec = _random_threeway_case(rng, index)
        assert sec.n_top <= 20
        report = cross_validate(model, sec)
        assert report.passed, (model, sec.base_occupations, report.failing_levels())
        worst_energy = max(worst_energy, report.max_energy_error)
        worst_residual = max(worst_residual, max(rec.residual_robust for rec in report.levels))
    elapsed = time.perf_counter() - start
    _report("3 three-way spectral agreement",
            worst_energy <= 1e-8 and worst_residual <= 1e-10 and elapsed < 30.0,
            f"(max dE={worst_energy:.2e}, max resid={worst_residual:.2e}, {elapsed:.1f}s)")


def test_criterion_4_case_coefficient_regression():
    """50 exact draws per case: tabulated coefficients equal the general
    expansion, with registered table-side discrepancies annotated (never
    silently passed) and required to equal their exact predicted deltas."""
    annotated = set()
    for case in ["A", "B", "C"]:
        report = verify_case(case, draws=50, seed=404)
        mismatches = [it for it in report.items if it.status == "MISMATCH"]
        assert not mismatches, mismatches[:5]
        annotated.update((case, it.name) for it in report.items
                         if it.status == "known-discrepancy")
    # the P0/G21 omission must have been exercised and annotated
    assert ("B", "P0") in annotated
    registered = {(d.case, d.item) for d in KNOWN_DISCREPANCIES}
    _report("4 coefficient regression", True,
            f"(annotated discrepancies: {sorted(annotated)}; registered: {sorted(registered)})")


def test_criterion_5_analytic_micro_case():
    """Preset A, w = 0, g = 1, sector of (0,0,1): roots {+1},{-1}, E = {-1,+1}."""
    model = make_model(2, 1, (1, 1, 1), g=1)
    sec = sector_from_occupations(model, (0, 0, 1))
    sols = solve_bethe(model, sec)
    roots = [sol.roots.tolist() for sol in sols]
    ok = (roots == [[1.0], [-1.0]]
          and abs(sols[0].energy - (-1.0)) <= 1e-12
          and abs(sols[1].energy - 1.0) <= 1e-12
          and abs(sols[0].oracle_energy - (-1.0)) <= 1e-12
          and abs(sols[1].oracle_energy - 1.0) <= 1e-12)
    _report("5 analytic micro-case", ok, f"(roots={roots})")


def test_criterion_6_residual_form_equivalence():
    """100 random distinct-root sets (N <= 8, M <= 4): pole-residue form times
    psi'(a_p) equals the robust form, and both equal subset enumeration."""
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    while checked < 100:
        r = int(rng.integers(1, 3))
        s = int(rng.integers(1, 3))
        k = [int(rng.integers(1, 3)) for _ in range(r + s)]
        n = r + s
        model = make_model(r, s, k, w=rng.uniform(-1, 1, n),
                           wq={(i, j): rng.uniform(-1, 1) for i in range(n)
                               for j in range(i, n)},
                           g=rng.uniform(0.1, 2.0))
        levels = [int(rng.integers(0, 5)) for _ in range(n)]
        anchor = [k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n)]
        sec = sector_from_occupations(model, anchor)
        n_roots = min(sec.n_top, 8)
        op = expand_diffop(model, sec)
        if n_roots == 0 or op.order > 4:
            continue
        roots = rng.standard_normal(n_roots) + 1j * rng.standard_normal(n_roots)
        res_bae = bethe_residuals(op, roots)
        res_rob = robust_residuals(op, roots)
        dvals = npoly.polyval(roots, npoly.polyder(_monic_from_roots(roots)))
        scale = max(1.0, float(np.max(np.abs(res_rob))))
        err = float(np.max(np.abs(res_bae * dvals - res_rob))) / scale
        res_subset = np.array(subset_bae_residuals(op, list(roots)))
        scale2 = max(1.0, float(np.max(np.abs(res_subset))))
        err = max(err, float(np.max(np.abs(res_bae - res_subset))) / scale2)
        worst = max(worst, err)
        checked += 1
    _report("6 residual-form equivalence", worst <= 1e-10, f"(max rel err={worst:.2e})")


def test_criterion_7_sector_bookkeeping():
    """All Fock states with total occupation <= 12: graph enumeration matches
    every sector dimension and the Hamiltonian never leaves a sector."""
    shapes = [(2, 1, (1, 1, 1)), (2, 1, (1, 1, 2)), (2, 2, (1, 1, 1, 1))]
    states_checked = 0
    for r, s, k in shapes:
        model = make_model(r, s, k, g=1)
        seen_orbits = {}
        for occ in occupations_below(r + s, 12):
            sec = sector_from_occupations(model, occ)
            orbit = seen_orbits.get(sec.label_key)
            if orbit is None:
                orbit = bfs_sector_states(model, occ)
                seen_orbits[sec.label_key] = orbit
                assert sec.dim == len(orbit), (occ, sec.dim, len(orbit))
            assert occ in orbit
            # structural block diagonality: every nonzero matrix element of H
            # from this state stays inside the same sector
            for move in (lower_move, raise_move):
                target = move(model, occ)
                if target is not None:
                    assert sector_from_occupations(model, target) == sec
            states_checked += 1
    _report("7 sector bookkeeping", True, f"({states_checked} states)")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    """Repeated solve and scan runs with a fixed seed are byte-identical."""
    from multiboson.cli import main

    solve_args = ["solve", "--preset", "B", "--w", "0.5,-0.25,0.75",
                  "--wq", "1,2=0.3;3,3=-0.2", "--g", "1.1", "--occ", "2,1,4",
                  "--seed", "11", "--direct", "--starts", "16"]
    scan_args = ["scan", "--preset", "C", "--g-range", "0:2:0.1", "--occ", "1,1,0,0"]
    ok = True
    for args in (solve_args, scan_args):
        paths = [tmp_path / f"{args[0]}_{i}.csv" for i in range(2)]
        for path in paths:
            assert main(args + ["--output", str(path)]) == 0
        ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()
    _report("8 CLI determinism", ok)
