"""Root equations, energies, solver pipeline, and cross-validation."""

import collections
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiboson import (SolverConfig, bethe, bethe_residuals, build_monomial_matrix,
                        canonicalize_roots, cross_validate, diagonalize, direct_search,
                        energy_from_roots, expand_diffop, make_model, occupations_at, preset,
                        robust_residuals, roots_from_eigenvector, sector_from_occupations,
                        solve_bethe)
from multiboson import cli, diffop
from multiboson.bethe import _monic_from_roots
from numpy.polynomial import polynomial as npoly
from oracles import has_close_pair, high_precision_coefficients, subset_bae_residuals


MODEL_A = make_model(2, 1, (1, 1, 1), g=1)
SEC_A = sector_from_occupations(MODEL_A, (0, 0, 1))
OP_A = expand_diffop(MODEL_A, SEC_A)


def test_residual_micro_examples():
    assert bethe_residuals(OP_A, [1.0]) == pytest.approx([0.0], abs=1e-15)
    # P_1(0) = g(l1+1) = 1 for this sector
    assert bethe_residuals(OP_A, [0.0]) == pytest.approx([1.0], abs=1e-15)


def test_robust_micro_examples():
    assert robust_residuals(OP_A, [1.0]) == pytest.approx([0.0], abs=1e-15)
    assert robust_residuals(OP_A, [-1.0]) == pytest.approx([0.0], abs=1e-15)
    assert abs(robust_residuals(OP_A, [0.0])[0]) > 0.5


def _random_op(rng, n_levels=None):
    r = int(rng.integers(1, 3))
    s = int(rng.integers(1, 3))
    k = [int(rng.integers(1, 3)) for _ in range(r + s)]
    n = r + s
    w = rng.uniform(-1, 1, n)
    wq = {(i, j): rng.uniform(-1, 1) for i in range(n) for j in range(i, n)}
    g = rng.uniform(0.1, 2.0)
    model = make_model(r, s, k, w=w, wq=wq, g=g)
    levels = [int(rng.integers(0, 5)) for _ in range(n)]
    anchor = [k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n)]
    sec = sector_from_occupations(model, anchor)
    return model, sec, expand_diffop(model, sec)


def test_residual_forms_equivalent_and_match_subset_oracle():
    rng = np.random.default_rng(21)
    done = 0
    while done < 30:
        model, sec, op = _random_op(rng)
        n = min(sec.n_top, 6)
        if n == 0 or op.order > 4:
            continue
        roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res_bae = bethe_residuals(op, roots)
        res_rob = robust_residuals(op, roots)
        dpsi_vals = npoly.polyval(roots, npoly.polyder(_monic_from_roots(roots)))
        scale = max(1.0, float(np.max(np.abs(res_rob))))
        assert np.max(np.abs(res_bae * dpsi_vals - res_rob)) <= 1e-10 * scale
        res_subset = np.array(subset_bae_residuals(op, list(roots)))
        scale2 = max(1.0, float(np.max(np.abs(res_subset))))
        assert np.max(np.abs(res_bae - res_subset)) <= 1e-10 * scale2
        done += 1


def test_residuals_reject_coincident_roots():
    with pytest.raises(ValueError):
        bethe_residuals(OP_A, [0.5, 0.5])


def test_roots_from_eigenvector_examples():
    roots, reduced = roots_from_eigenvector([1.0, 1.0])
    assert not reduced and roots.tolist() == [-1.0]
    roots, reduced = roots_from_eigenvector([1.0, -1.0])
    assert roots.tolist() == [1.0]
    roots, reduced = roots_from_eigenvector([0.0, 0.0, 0.0, 1.0])
    assert not reduced and np.allclose(roots, 0.0)
    # exact trailing zeros trim by default; tiny-but-nonzero need a threshold
    roots, reduced = roots_from_eigenvector([1.0, 1.0, 0.0])
    assert reduced and len(roots) == 1
    roots, reduced = roots_from_eigenvector([1.0, 1.0, 1e-18], deflation_tol=1e-12)
    assert reduced and len(roots) == 1
    roots, reduced = roots_from_eigenvector([1.0, 1.0, 1e-18])
    assert not reduced and len(roots) == 2
    with pytest.raises(ValueError):
        roots_from_eigenvector([0.0, 0.0])


def test_canonicalize_roots():
    canon = canonicalize_roots([1 + 1e-12j, -2.0, 0.5 + 0.25j, 0.5 - 0.25j + 1e-13j])
    assert canon[0] == -2.0
    assert (1.0 + 0.0j) in canon         # snapped to the real axis
    pair = [z for z in canon if abs(z.imag) > 0]
    assert len(pair) == 2 and pair[0] == pair[1].conjugate()
    assert list(canon) == sorted(canon, key=lambda z: (z.real, z.imag))


def test_energy_micro_examples():
    assert energy_from_roots(MODEL_A, SEC_A, (1.0,)) == -1.0
    assert energy_from_roots(MODEL_A, SEC_A, (-1.0,)) == 1.0


def test_energy_constant_part_is_top_state_diagonal():
    model = make_model(2, 1, (1, 1, 2), w=[0.3, -0.7, 0.4],
                       wq={(0, 1): 0.5, (2, 2): -0.25}, g=1.0)
    sec = sector_from_occupations(model, (2, 1, 4))
    top = occupations_at(model, sec, sec.n_top)
    diag = sum(float(model.w[i]) * top[i] for i in range(3))
    diag += sum(float(model.quadratic(i, j)) * top[i] * top[j]
                for i in range(3) for j in range(i, 3))
    assert energy_from_roots(model, sec, ()) == pytest.approx(diag, rel=1e-14)


def test_energy_rejects_unbalanced_imaginary_roots():
    with pytest.raises(ValueError):
        energy_from_roots(MODEL_A, SEC_A, (1.0j,))
    with pytest.raises(ValueError):
        energy_from_roots(MODEL_A, SEC_A, (1.0, 2.0))  # too many roots


def test_solve_micro_case_exact():
    sols = solve_bethe(MODEL_A, SEC_A)
    assert len(sols) == 2
    assert sols[0].roots == (1.0,)   # ground state psi = z - 1
    assert sols[1].roots == (-1.0,)
    assert abs(sols[0].energy + 1.0) <= 1e-12
    assert abs(sols[1].energy - 1.0) <= 1e-12
    for sol in sols:
        assert abs(sol.energy - sol.oracle_energy) <= 1e-12
        assert sol.residual_robust <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_completeness_random_models(seed):
    rng = np.random.default_rng(100 + seed)
    n_top = int(rng.integers(5, 21))
    model = make_model(2, 1, (1, 1, 1), w=rng.uniform(-1, 1, 3),
                       wq={(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(i, 3)},
                       g=rng.uniform(0.1, 2.0))
    sec = sector_from_occupations(model, (int(rng.integers(0, 3)), 0, n_top))
    assert sec.n_top == n_top
    report = cross_validate(model, sec, tol=1e-8)
    assert report.passed, report.failing_levels()
    sols = [s for s in solve_bethe(model, sec) if s.source != "direct"]
    assert len(sols) == n_top + 1
    for sol in sols:
        # conjugate symmetry of each level's root multiset
        canon = canonicalize_roots([a.conjugate() for a in sol.roots])
        assert max((abs(x - y) for x, y in zip(canon, sol.roots)), default=0.0) <= 1e-8
        assert sol.residual_robust <= 1e-10


def test_energy_linearity_in_root_sum():
    rng = np.random.default_rng(77)
    model = make_model(2, 1, (1, 1, 2), w=rng.uniform(-1, 1, 3), g=0.8)
    sec = sector_from_occupations(model, (1, 0, 12))
    from multiboson import hop_coefficients

    hop_a, _, _ = hop_coefficients(model, sec)
    pref = float(hop_a(sec.n_top - 1))
    sols = solve_bethe(model, sec)
    scale = max(1.0, max(abs(s.energy) for s in sols))
    for a in sols:
        for b in sols:
            lhs = a.energy - b.energy
            rhs = -pref * (sum(r.real for r in a.roots) - sum(r.real for r in b.roots))
            assert abs(lhs - rhs) <= 1e-8 * scale


def test_sum_rule_matches_eigenpolynomial():
    from multiboson import build_monomial_matrix, diagonalize

    model = make_model(2, 1, (1, 1, 1), w=[0.2, -0.3, 0.5], g=1.2)
    sec = sector_from_occupations(model, (0, 0, 8))
    spec = diagonalize(build_monomial_matrix(model, sec))
    sols = solve_bethe(model, sec)
    for level, sol in enumerate(sols):
        c = spec.vectors[:, level]
        expected = -c[-2] / c[-1]
        got = sum(a.real for a in sol.roots)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_n0_sector_trivial_solution():
    model = make_model(2, 1, (1, 1, 1), w=[0.4, 0.1, -0.2], g=1)
    sec = sector_from_occupations(model, (3, 0, 0))  # lowering and raising both blocked
    assert sec.n_top == 0
    sols = solve_bethe(model, sec)
    assert len(sols) == 1
    assert sols[0].roots == ()
    assert sols[0].energy == pytest.approx(sols[0].oracle_energy, abs=1e-14)


def test_degenerate_and_reduced_levels_at_g_zero():
    model = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
    sec = sector_from_occupations(model, (0, 0, 4))
    sols = solve_bethe(model, sec)
    oracle = sorted(s.oracle_energy for s in sols)
    assert all(abs(s.energy - s.oracle_energy) <= 1e-12 for s in sols)
    assert any(s.degenerate or s.reduced for s in sols)
    diag = sorted(float(x) for x in
                  (sum(model.w[i] * occupations_at(model, sec, n)[i] for i in range(3))
                   for n in range(sec.dim)))
    assert np.allclose(oracle, diag, atol=1e-14)


def test_direct_mode_is_subset_of_extracted():
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 2))
    cfg = SolverConfig(seed=4, starts=40)
    extracted = solve_bethe(model, sec, cfg)
    direct = direct_search(model, sec, cfg)
    assert direct, "multi-start search found nothing"
    for sol in direct:
        dists = [max(abs(x - y) for x, y in zip(sol.roots, ex.roots))
                 for ex in extracted if len(ex.roots) == len(sol.roots)]
        assert min(dists) <= 1e-7


def test_adversarial_corruption_is_detected():
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 6))
    op = expand_diffop(model, sec)
    sols = solve_bethe(model, sec)
    clean = np.array(sols[2].roots)
    corrupted = clean.copy()
    corrupted[0] += 1e-2
    res = robust_residuals(op, corrupted)
    assert np.max(np.abs(res)) > 1e-6
    e_clean = energy_from_roots(model, sec, clean)
    assert abs(e_clean - sols[2].oracle_energy) <= 1e-8
    # the corrupted set fails the acceptance residual threshold by far
    from multiboson.bethe import _derivatives, _float_polys, _scaled_robust

    stack = corrupted[None]
    assert _scaled_robust(_float_polys(op), stack, _derivatives(stack, op.order))[0] > 1e-8


def test_cross_validate_reports_failure_without_raising():
    model = make_model(2, 1, (1, 1, 1), w=[0.37, -0.21, 0.11], g=0.9)
    sec = sector_from_occupations(model, (1, 0, 5))
    report = cross_validate(model, sec, tol=0.0)
    assert not report.passed
    assert report.failing_levels()


def test_high_precision_route_passes_preset_a_at_n30(monkeypatch):
    """Every level of a sector that needs the high-precision route passes."""
    calls = []
    route = bethe._high_precision_coefficients

    def counted(*args, **kwargs):
        calls.append(args[1])
        return route(*args, **kwargs)

    monkeypatch.setattr(bethe, "_high_precision_coefficients", counted)
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 30))
    assert sec.n_top == 30
    report = cross_validate(model, sec)
    assert len(report.levels) == 31
    assert report.passed, report.failing_levels()
    assert calls


def test_candidates_pass_as_is_on_preset_a():
    """Every level of preset A at N=12, 20 and 30 passes on a candidate as-is."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    for n_top in (12, 20, 30):
        sec = sector_from_occupations(model, (0, 3, n_top))
        assert sec.n_top == n_top
        report = cross_validate(model, sec)
        assert report.passed, (n_top, report.failing_levels())


def test_ladder_builds_no_candidate_after_a_pass(monkeypatch):
    """Preset A at N=30, judged a rung at a time: no recurrence sees a level
    kept as extracted and converged, and the high-precision route sees no
    level that passes on the float64 recurrence."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 30))
    seen = collections.defaultdict(list)

    def recorded(name, route):
        def wrapper(terms, energy):
            seen[name].append(energy)
            return route(terms, energy)
        return wrapper

    for name in ("_coefficients_at_energy", "_high_precision_coefficients"):
        monkeypatch.setattr(bethe, name, recorded(name, getattr(bethe, name)))
    sols = solve_bethe(model, sec)
    extracted = {sol.oracle_energy for sol in sols
                 if sol.source == "extracted" and sol.converged}
    float64_route, decimal_route = (set(seen[name]) for name in (
        "_coefficients_at_energy", "_high_precision_coefficients"))
    assert extracted and decimal_route
    assert not extracted & (float64_route | decimal_route)
    assert decimal_route <= float64_route

    def no_recurrence(terms, energy):
        raise ZeroDivisionError

    # the levels that pass on the float64 recurrence, with the next rung off
    monkeypatch.setattr(bethe, "_high_precision_coefficients", no_recurrence)
    float64_passes = {sol.oracle_energy for sol in solve_bethe(model, sec)
                      if sol.source == "refined" and sol.converged}
    assert float64_passes and not float64_passes & decimal_route


def test_stacked_kernels_match_each_row_alone():
    """The residual kernels on a stack of root sets give each row exactly
    what they give that row alone; a row that overflows (inf robust
    residual) and one with a coincident pair (NaN pole-residue residual)
    leave their neighbours untouched."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    op = expand_diffop(model, sector_from_occupations(model, (0, 3, 9)))
    assert op.order >= 2
    p_list = bethe._float_polys(op)
    rng = np.random.default_rng(5)
    stack = 3.0 * (rng.standard_normal((6, op.n_top)) + 1j * rng.standard_normal((6, op.n_top)))
    stack[2] *= 1e200
    stack[4, :2] = 0.0

    def kernels(roots):
        derivs = bethe._derivatives(roots, op.order)
        return [*derivs, bethe._scaled_robust(p_list, roots, derivs),
                bethe._pole_residues(p_list, roots, derivs),
                bethe._scaled_bae(p_list, roots, derivs)]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        together = kernels(stack)
        for row in range(len(stack)):
            alone = kernels(stack[row:row + 1])
            for got, want in zip(together, alone):
                assert np.array_equal(got[row], want[0], equal_nan=True), row
    robust, bae = together[-3], together[-1]
    assert robust[2] == math.inf and math.isnan(bae[4])
    neighbours = [0, 1, 3, 5]
    assert np.all(np.isfinite(robust[neighbours])) and np.all(np.isfinite(bae[neighbours]))


def test_cross_validate_on_preset_b_at_n100_raises_no_runtime_warning():
    """Overflow in the residual kernels at N=100 reads as inf silently."""
    model = preset("B", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 200))
    assert sec.n_top == 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cross_validate(model, sec)
    assert len(report.levels) == 101


def test_level_without_a_passing_candidate_is_reported_unconverged(monkeypatch):
    """A perturbed extracted root set and no recurrence: every level comes
    back unconverged with the extracted roots, and the report fails it."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 6))
    extract = bethe.roots_from_eigenvector

    def perturbed(*args):
        roots, reduced = extract(*args)
        return roots * (1 + 1e-4), reduced

    def no_recurrence(terms, energy):
        raise ZeroDivisionError

    monkeypatch.setattr(bethe, "roots_from_eigenvector", perturbed)
    monkeypatch.setattr(bethe, "_coefficients_at_energy", no_recurrence)
    monkeypatch.setattr(bethe, "_high_precision_coefficients", no_recurrence)
    sols = solve_bethe(model, sec)
    assert len(sols) == sec.dim
    for sol in sols:
        assert sol.source == "extracted" and not sol.converged and not sol.reduced
    report = cross_validate(model, sec)
    assert not report.passed
    assert len(report.failing_levels()) == sec.dim


def test_kept_attempt_is_the_one_whose_energy_agrees_on_preset_b_at_n60():
    """Preset B at N=60: where no candidate passes, the level keeps a root
    set whose energy agrees, so a failing level fails on its residual only."""
    model = preset("B", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 120))
    assert sec.n_top == 60
    report = cross_validate(model, sec)
    assert len(report.levels) == 61
    assert all(rec.energy_error <= 1e-8 for rec in report.levels), report.max_energy_error
    for rec in report.failing_levels():
        assert rec.residual_robust > 1e-10, rec


def test_cross_validate_builds_each_sector_quantity_once(monkeypatch):
    """One monomial block and spectrum, one operator and float form per
    sector, no direct search, and level energies from the operator's own
    hop polynomials."""
    counts = collections.Counter()
    in_level = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            if name != "hop_coefficients" or in_level:
                counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("build_monomial_matrix", "diagonalize", "expand_diffop", "_float_polys",
                 "direct_search", "_direct_search", "hop_coefficients"):
        monkeypatch.setattr(bethe, name, counted(name, getattr(bethe, name)))
    solve_levels = bethe._solve_levels

    def levels(*args, **kwargs):
        in_level.append(True)
        try:
            return solve_levels(*args, **kwargs)
        finally:
            in_level.pop()

    monkeypatch.setattr(bethe, "_solve_levels", levels)
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 12))
    for config in (None, SolverConfig(direct=True)):
        counts.clear()
        report = cross_validate(model, sec, config=config)
        assert report.passed and len(report.solutions) == sec.dim
        assert dict(counts) == {"build_monomial_matrix": 1, "diagonalize": 2,
                                "expand_diffop": 1, "_float_polys": 1}


def test_direct_roots_build_the_operator_once_per_consumer(monkeypatch, capsys):
    """`roots --dump-diffop --direct`: the dump and the solver each build the
    operator once, and the direct search reuses the solver's float form."""
    counts = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    expand = counted("expand_diffop", diffop.expand_diffop)
    monkeypatch.setattr(diffop, "expand_diffop", expand)
    monkeypatch.setattr(bethe, "expand_diffop", expand)
    monkeypatch.setattr(bethe, "_float_polys", counted("_float_polys", bethe._float_polys))
    code = cli.main(["roots", "--preset", "A", "--g", "1", "--occ", "0,0,3",
                     "--dump-diffop", "--direct"])
    out = capsys.readouterr().out
    assert code == 0 and "direct:" in out
    assert dict(counts) == {"expand_diffop": 2, "_float_polys": 1}


GRID_W = (0.4, -0.3, 0.2)
ROUTE_SECTORS = {
    "A-40": ("A", GRID_W, (0, 3, 40)),
    "B-40": ("B", GRID_W, (0, 3, 80)),
    "C-40": ("C", GRID_W + (0.1,), (0, 3, 40, 42)),
    "A-30": ("A", GRID_W, (0, 3, 30)),
}


@pytest.mark.parametrize("name", [*ROUTE_SECTORS, "A-30-exact"])
def test_high_precision_route_matches_mpmath_reference(name):
    """The decimal route gives the mpmath route's float64 coefficients
    exactly, on every level of the N=40 grid, of preset A at N=30, and of
    one sector whose couplings (and so hop values) are exact fractions."""
    if name.endswith("exact"):
        model = preset("A", w=[Fraction(2, 5), Fraction(-3, 10), Fraction(1, 5)],
                       wq={(0, 1): Fraction(1, 2)}, g=Fraction(4, 5))
        occ = (0, 3, 30)
    else:
        case, w, occ = ROUTE_SECTORS[name]
        model = preset(case, w=list(w), wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, occ)
    op = expand_diffop(model, sec)
    if name.endswith("exact"):
        assert all(isinstance(op.hop_c(m), Fraction) for m in range(1, sec.n_top + 1))
    terms = bethe._HopTerms(op)
    for energy in diagonalize(build_monomial_matrix(model, sec)).energies:
        got = bethe._high_precision_coefficients(terms, float(energy))
        assert np.array_equal(got, high_precision_coefficients(op, float(energy))), energy


def test_high_precision_route_raises_without_interaction():
    """At g = 0 every C(m) vanishes; both routes raise ZeroDivisionError,
    whether the first recurrence step divides x/0 or 0/0."""
    model = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
    sec = sector_from_occupations(model, (0, 0, 4))
    op = expand_diffop(model, sec)
    terms = bethe._HopTerms(op)
    for m in (0, 1):   # E = B(0): (E - B(0)) / C(1) is 0/0; E = B(1): x/0
        energy = float(op.hop_b(m))
        with pytest.raises(ZeroDivisionError):
            high_precision_coefficients(op, energy)
        with pytest.raises(ZeroDivisionError):
            bethe._high_precision_coefficients(terms, energy)


_SPECIAL_ROOTS = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
                  complex(-math.inf, 1.0), complex(0.0, math.inf), 0j, 1 + 0j, 1 + 1e-12j]


@settings(max_examples=300, deadline=None)
@given(base=st.lists(st.one_of(st.complex_numbers(), st.sampled_from(_SPECIAL_ROOTS)),
                     max_size=10),
       repeats=st.lists(st.integers(0, 9), max_size=3),
       rel_tol=st.sampled_from([0.0, 1e-10, 1e-6, 1e-2, 1.0, 1e300]))
@example(base=[3.388438665504959e+16 + 4.512108963653434e+16j, 0j], repeats=[], rel_tol=1.0)
def test_has_close_pair_matches_double_loop(base, repeats, rel_tol):
    """NaN, infinite and exactly equal roots among the inputs."""
    items = base + [base[i % len(base)] for i in repeats] if base else []
    roots = np.array(items, dtype=complex)
    with np.errstate(all="ignore"):
        assert bethe._has_close_pair(roots, rel_tol) == has_close_pair(roots, rel_tol)
