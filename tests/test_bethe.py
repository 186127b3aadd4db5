"""Root equations, energies, solver pipeline, and cross-validation."""

import collections
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiboson import (bethe, bethe_residuals, build_monomial_matrix,
                        canonicalize_roots, cross_validate, diagonalize, direct_search,
                        energy_from_roots, expand_diffop, make_model, occupations_at, preset,
                        robust_residuals, roots_from_eigenvector, sector_from_occupations,
                        solve_bethe)
from multiboson import (Polynomial, apply_to_polynomial, cli, diffop, hamiltonian,
                        verify_case, verify_single_mode_algebra)
from multiboson.bethe import _monic_from_roots
from numpy.polynomial import polynomial as npoly
from oracles import (float64_coefficients, has_close_pair, high_precision_coefficients,
                     hop_polynomials, poly_value, settled_coefficients, subset_bae_residuals)


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


_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=5)


@st.composite
def _exact_ops_and_roots(draw):
    """An operator of a model with r, s, k_i in 1..2 and Fraction
    couplings, on a sector anchored at m_i < 5 k_i (so N <= 4 + 4 = 8), and
    N small rational roots, repeats allowed."""
    r, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = r + s
    k = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    w = draw(st.lists(_FRACTIONS, min_size=n, max_size=n))
    wq = {(i, j): draw(_FRACTIONS) for i in range(n) for j in range(i, n)}
    model = make_model(r, s, k, w=w, wq=wq, g=draw(_FRACTIONS))
    sec = sector_from_occupations(model, [draw(st.integers(0, 5 * ki - 1)) for ki in k])
    roots = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          min_size=sec.n_top, max_size=sec.n_top))
    return expand_diffop(model, sec), roots


@settings(max_examples=100, deadline=None)
@given(case=_exact_ops_and_roots())
def test_robust_residuals_match_exact_h_psi_at_the_roots(case):
    """The float robust form equals (H psi)(a_p) of the exact psi, evaluated
    exactly, to 1e-12 of the exact magnitude bound sum_i |P_i| |psi^(i)| at
    |a_p|: a check of the robust form on its own, apart from the
    pole-residue form that reads the same evaluation."""
    op, roots = case
    assert op.n_top <= 8
    psi = Polynomial((1,))
    for a in roots:
        psi = psi * Polynomial((-a, 1))
    h_psi = apply_to_polynomial(op, psi)

    def magnitude(poly, x):
        return Polynomial([abs(c) for c in poly.coeffs])(abs(x))

    got = robust_residuals(op, [float(a) for a in roots])
    assert len(got) == len(roots)
    for value, a in zip(got, roots):
        bound = sum(magnitude(p, a) * magnitude(psi.derivative(i), a)
                    for i, p in enumerate(op.p))
        assert abs(value - complex(h_psi(a))) <= 1e-12 * float(bound)


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
    # only exact-zero top coefficients reduce the degree
    roots, reduced = roots_from_eigenvector([1.0, 1.0, 0.0])
    assert reduced and len(roots) == 1
    roots, reduced = roots_from_eigenvector([1.0, 1.0, 1e-18])
    assert not reduced and len(roots) == 2
    # an exact-zero tail gives bit for bit what the solver's root routine gives
    row = [0.5, -2.0, 3.0, 0.0, 0.0]
    roots, reduced = roots_from_eigenvector(row)
    assert reduced and roots.tobytes() == bethe._roots_of_rows([np.array(row)])[0].tobytes()
    with pytest.raises(ValueError):
        roots_from_eigenvector([0.0, 0.0])


def _coefficient_row(seed, degree, low_zeros, top_zeros, as_complex):
    """One polynomial's coefficients, low to high: magnitudes 1e-20..1e20
    of either sign from `default_rng(seed)`, the given numbers of
    exact-zero constant and top coefficients, float64 or complex128 with a
    zero imaginary part."""
    rng = np.random.default_rng(seed)
    row = rng.choice((-1.0, 1.0), degree + 1) * 10.0 ** rng.uniform(-20, 20, degree + 1)
    row[:low_zeros] = 0.0
    row[degree + 1 - top_zeros:] = 0.0
    if not np.any(row):
        row[degree // 2] = 1.0
    return row.astype(complex) if as_complex else row


@st.composite
def _coefficient_rows(draw):
    """A `_coefficient_row` of degree 1..59 (often a shared one, so rows
    stack), with up to two exact-zero constant and top coefficients."""
    degree = draw(st.one_of(st.sampled_from((1, 2, 12)), st.integers(1, 59)))
    return _coefficient_row(draw(st.integers(0, 2**32 - 1)), degree, draw(st.integers(0, 2)),
                            draw(st.integers(0, 2)), draw(st.booleans()))


# derandomized: the same rows every run; a drawn row on which zgeev does not
# converge costs up to 16 s per eigensolve and once made this test flaky
@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(_coefficient_rows(), min_size=1, max_size=8))
# zgeev does not converge on the first, complex row: np.roots raises on it
# alone (in about 0.5 s; the degree-54 row of seed 1201 takes about 16 s)
@example(rows=[_coefficient_row(3998, 12, 0, 0, True), _coefficient_row(7, 12, 0, 0, True)])
def test_roots_of_rows_match_numpy_roots_bit_for_bit(rows):
    """The stacked companion eigensolve gives each row exactly what
    `np.roots` gives it alone, down to the dtype and every bit.  Where
    LAPACK does not converge on a row, and `np.roots` raises LinAlgError on
    it, that row gets None and every other row of the stack still gets
    `np.roots` bit for bit."""
    got = bethe._roots_of_rows(rows)
    assert len(got) == len(rows)
    for row, roots in zip(rows, got):
        try:
            want = np.roots(row[::-1]).astype(complex)
        except np.linalg.LinAlgError:
            assert roots is None
            continue
        assert np.array_equal(roots, want)
        assert roots.dtype == want.dtype and roots.tobytes() == want.tobytes()


@st.composite
def _horner_cases(draw):
    """(L, K) coefficients and (L, N) points, both float64 or both
    complex128, as the residual kernels pass them: any floats, signed
    zeros, infinities and NaNs included."""
    rows, size, count = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 5))
    real = draw(st.booleans())
    value, dtype = (st.floats(), float) if real else (st.complex_numbers(), complex)

    def array(shape):
        n = shape[0] * shape[1]
        return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=dtype).reshape(shape)

    return array((rows, size)), array((rows, count))


@settings(max_examples=300, deadline=None)
@given(case=_horner_cases())
def test_horner_and_derivative_match_numpy_polynomial_bit_for_bit(case):
    """`_at` and `_derivative` are `npoly.polyval` (shared and per-row
    coefficients) and `npoly.polyder(..., axis=-1)`, down to every bit."""
    coeffs, points = case
    with np.errstate(all="ignore"):
        pairs = [(bethe._at(coeffs, points),
                  npoly.polyval(points, coeffs.T[:, :, None], tensor=False)),
                 (bethe._at(coeffs[0], points), npoly.polyval(points, coeffs[0])),
                 (bethe._derivative(coeffs), npoly.polyder(coeffs, axis=-1))]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _same_solution(a, b):
    """Whether two solutions are equal, roots bit for bit (the repr of an
    array rounds them to 8 digits)."""
    return repr(a) == repr(b) and a.roots.tobytes() == b.roots.tobytes()


def test_a_failed_eigensolve_drops_one_row_not_the_rung(monkeypatch):
    """An eigensolver that does not converge on one level's companion
    matrix costs that level its candidate, not the whole rung: the stack is
    redone a matrix at a time, the level climbs the ladder (level 0 of this
    sector on to the decimal rung: its eigenvector row's energy is off by
    3e-6), every other level keeps its roots bit for bit, and
    `cross_validate` reports."""
    model, sec = _route_sector("A-30")
    clean = solve_bethe(model, sec)
    level = 0
    assert clean[level].source == "extracted" and clean[level].converged
    block = build_monomial_matrix(model, sec)
    p = bethe._twisted_rows(block, diagonalize(block).energies)[level, ::-1]
    assert p[0] != 0 and p[-1] != 0
    top_row = -p[1:] / p[0]   # the first row of the level's companion matrix
    eigvals = np.linalg.eigvals

    def flaky(a):
        if any(np.array_equal(m[0], top_row) for m in (a if a.ndim == 3 else [a])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    report = cross_validate(model, sec)
    assert len(report.levels) == sec.dim
    moved = [sol.level for sol, want in zip(report.solutions, clean)
             if not _same_solution(sol, want)]
    assert moved == [level]
    assert report.solutions[level].source == "refined" and report.solutions[level].converged
    # the one-row entry point raises on that matrix, as `np.roots` does
    with pytest.raises(np.linalg.LinAlgError):
        roots_from_eigenvector(p[::-1])


def test_solve_makes_one_stacked_eigensolve_per_rung(monkeypatch):
    """Preset A at N=60 reaches every rung (levels 58-60 go down to the
    float64 recurrence), and each rung finds the roots of all of its levels
    in one `np.linalg.eigvals` call; no level gets an `np.roots` call of its
    own (104 of them on preset A at N=40 once)."""
    calls = collections.Counter()

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eigvals")
    counted(np, "roots")
    counted(bethe, "_coefficients_at_energy")
    model, sec = _route_sector("A-60")
    solve_bethe(model, sec)
    assert calls["_coefficients_at_energy"] > 0
    assert calls["roots"] == 0 and calls["eigvals"] == 4


def test_direct_search_finds_nothing_without_starts():
    """Zero starts find no root set, even the empty one of an N = 0 sector,
    and a negative count is an error, not zero starts."""
    model = make_model(2, 1, (1, 1, 1), w=[0.4, 0.1, -0.2], g=1)
    sec = sector_from_occupations(model, (3, 0, 0))
    assert sec.n_top == 0
    assert direct_search(model, sec, starts=0) == []
    assert [sol.source for sol in direct_search(model, sec, starts=3)] == ["direct"]
    with pytest.raises(ValueError, match="starts"):
        direct_search(model, sec, starts=-2)


@pytest.mark.parametrize("func, args, setting", [
    (solve_bethe, (MODEL_A, SEC_A), {"starts": 8}),
    (solve_bethe, (MODEL_A, SEC_A), {"seed": 1}),
    (roots_from_eigenvector, ([1.0, 1.0, 1e-18],), {"deflation_tol": 1e-12}),
    (energy_from_roots, (MODEL_A, SEC_A, (1.0,)), {"imag_tol": 1e-4}),
    (verify_case, ("A",), {"bae_tol": 1e-6}),
    (verify_single_mode_algebra, (2,), {"tol": 1e-6}),
    (solve_bethe, (MODEL_A, SEC_A), {"energy_tol": 1e-6}),
    (cross_validate, (MODEL_A, SEC_A), {"energy_tol": 1e-6}),
], ids=["solve_bethe-starts", "solve_bethe-seed", "roots_from_eigenvector-deflation_tol",
        "energy_from_roots-imag_tol", "verify_case-bae_tol", "verify_single_mode_algebra-tol",
        "solve_bethe-energy_tol", "cross_validate-energy_tol"])
def test_removed_settings_are_rejected(func, args, setting):
    """The direct search is its own call, and the energy, imaginary-part,
    deflation, table-form and algebra tolerances are fixed: no caller sets
    them."""
    with pytest.raises(TypeError, match=next(iter(setting))):
        func(*args, **setting)


def test_closed_form_energy_has_one_imaginary_part_rule():
    """An imaginary leftover above 1e-8 of max(1, |Re E|) rejects a root
    set, in `energy_from_roots` and in the ladder alike; one below it is
    dropped.  The ladder's rule takes no tolerance: it once allowed
    sqrt(energy_tol), 1e-4 at the default."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 2))
    op = expand_diffop(model, sec)
    real = tuple(complex(a) for a in solve_bethe(model, sec)[0].roots)
    energy = energy_from_roots(model, sec, real)
    # shifting one root by i*delta gives the energy an imaginary part A(N-1)*delta
    step = 1e-8 * max(1.0, abs(energy)) / abs(float(op.hop_values[0][-1]))
    for factor, accepted in ((0.5, True), (2.0, False)):
        roots = (real[0] + 1j * factor * step,) + real[1:]
        if accepted:
            assert energy_from_roots(model, sec, roots) == energy
            assert bethe._closed_form_energy(op, roots) == energy
        else:
            with pytest.raises(ValueError, match="imaginary part"):
                energy_from_roots(model, sec, roots)
            assert math.isnan(bethe._closed_form_energy(op, roots))


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
    assert np.array_equal(sols[0].roots, [1.0])   # ground state psi = z - 1
    assert np.array_equal(sols[1].roots, [-1.0])
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
    report = cross_validate(model, sec)
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
    hop_a, _, _ = hop_polynomials(model, sec)
    pref = float(poly_value(hop_a, sec.n_top - 1))
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


def test_roots_are_read_only_complex_arrays_on_every_path():
    """The ladder, the exact g = 0 branch and the direct search each keep a
    level's roots as one read-only complex128 array of its own, and
    solutions still compare and hash by value."""
    g0 = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
    sec_g0 = sector_from_occupations(g0, (0, 0, 4))
    solutions = [*solve_bethe(MODEL_A, SEC_A), *direct_search(MODEL_A, SEC_A, starts=8),
                 *solve_bethe(g0, sec_g0)]
    assert any(sol.source == "direct" for sol in solutions)
    for sol in solutions:
        assert isinstance(sol.roots, np.ndarray) and sol.roots.dtype == np.complex128
        assert sol.roots.base is None and not sol.roots.flags.writeable
        with pytest.raises(ValueError):
            sol.roots[...] = 0
    again = solve_bethe(g0, sec_g0)
    assert again == solutions[-len(again):] and len(set(again)) == len(again)
    assert again[3] != again[4] and hash(again[3]) == hash(solutions[-2])


def test_n0_sector_trivial_solution():
    model = make_model(2, 1, (1, 1, 1), w=[0.4, 0.1, -0.2], g=1)
    sec = sector_from_occupations(model, (3, 0, 0))  # lowering and raising both blocked
    assert sec.n_top == 0
    sols = solve_bethe(model, sec)
    assert len(sols) == 1
    assert len(sols[0].roots) == 0
    assert sols[0].energy == pytest.approx(sols[0].oracle_energy, abs=1e-14)


def test_degenerate_and_reduced_levels_at_g_zero(monkeypatch):
    """At g = 0 the block is diagonal and solved exactly, with no root
    finding: level l is z^n(l), n(l) the l-th index of B(0..N) in stable
    ascending order, and its energy is B(n(l)) itself."""
    calls = collections.Counter()
    eigvals = np.linalg.eigvals

    def counted(*args, **kwargs):
        calls["eigvals"] += 1
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    model = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
    sec = sector_from_occupations(model, (0, 0, 4))
    sols = solve_bethe(model, sec)
    assert calls["eigvals"] == 0
    oracle = sorted(s.oracle_energy for s in sols)
    assert all(abs(s.energy - s.oracle_energy) <= 1e-12 for s in sols)
    assert any(s.degenerate or s.reduced for s in sols)
    diag = [sum(model.w[i] * occupations_at(model, sec, n)[i] for i in range(3))
            for n in range(sec.dim)]
    assert np.allclose(oracle, sorted(float(x) for x in diag), atol=1e-14)
    order = sorted(range(sec.dim), key=lambda n: diag[n])
    for sol, n in zip(sols, order):
        assert sol.energy == float(diag[n])
        assert np.array_equal(sol.roots, np.zeros(n)) and sol.roots.dtype == complex
        assert sol.reduced == (n < sec.n_top) and sol.converged


def test_direct_mode_is_subset_of_extracted():
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 2))
    extracted = solve_bethe(model, sec)
    direct = direct_search(model, sec, starts=40, seed=4)
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
    from multiboson.bethe import _float_polys, _scaled_robust, _terms_at_roots

    assert _scaled_robust(_terms_at_roots(_float_polys(op), corrupted[None]))[0] > 1e-8


# Random sectors whose monomial block was off the Fock one while the hop
# values came from float Horner on the expanded polynomials: two
# near-degenerate levels each missed by about 2e-8 of the spectral scale.
HORNER_CANCELLATION_SECTORS = {
    "r3s3-N13": dict(
        r=3, s=3, k=(2, 1, 1, 3, 3, 3), g=0.7315158295827009,
        w=(0.7306592932889147, 0.10691843470258999, 0.30699414688069937,
           0.04876785537993422, 0.7991587383609648, 0.9144583104475823),
        wq={(0, 0): 0.29075010994844197, (0, 1): 0.9065942704396837,
            (0, 2): 0.5442283085560178, (0, 3): 0.24507507103772208,
            (0, 4): -0.826147740341787, (0, 5): 0.9638990732146153,
            (1, 1): -0.7046714769439906, (1, 2): -0.3416114611971879,
            (1, 3): -0.35018035361318334, (1, 4): 0.7209088295424553,
            (1, 5): 0.22725009363625537, (2, 2): -0.18818379567225252,
            (2, 3): -0.19170958447698694, (2, 4): 0.13275889312661615,
            (2, 5): 0.0015041462311460307, (3, 3): 0.4299680340610086,
            (3, 4): 0.09262691497950915, (3, 5): -0.8588729954074039,
            (4, 4): 0.1256324145769785, (4, 5): 0.22517670372842824,
            (5, 5): -0.6435119541137506},
        occ=(4, 0, 1, 39, 40, 40), n_top=13),
    "r1s3-N15": dict(
        r=1, s=3, k=(3, 3, 3, 3), g=0.8438533153507192,
        w=(-0.4702696738563672, -0.06510655124702458, 0.4906457046277881,
           -0.7814729665539346),
        wq={(0, 0): -0.8160679583241348, (0, 1): -0.04248340017612828,
            (0, 2): -0.32717752829862556, (0, 3): -0.5650952572713415,
            (1, 1): 0.5968343047245848, (1, 2): 0.6644026217990402,
            (1, 3): 0.07486321829715759, (2, 2): 0.6938455675038098,
            (2, 3): 0.08313483404115973, (3, 3): 0.24668081463884484},
        occ=(34, 12, 17, 12), n_top=15),
}


@pytest.mark.parametrize("name", sorted(HORNER_CANCELLATION_SECTORS))
def test_cross_validate_passes_where_horner_cancelled(name):
    case = HORNER_CANCELLATION_SECTORS[name]
    model = make_model(case["r"], case["s"], case["k"], w=list(case["w"]), wq=case["wq"],
                       g=case["g"])
    sec = sector_from_occupations(model, case["occ"])
    assert sec.n_top == case["n_top"]
    report = cross_validate(model, sec)
    assert report.passed, report.failing_levels()
    assert report.max_energy_error <= 1e-12


def test_cross_validate_reports_failure_without_raising(monkeypatch):
    model = make_model(2, 1, (1, 1, 1), w=[0.37, -0.21, 0.11], g=0.9)
    sec = sector_from_occupations(model, (1, 0, 5))
    monkeypatch.setattr(bethe, "_ENERGY_TOL", 0.0)
    report = cross_validate(model, sec)
    assert not report.passed
    assert report.failing_levels()


def test_high_precision_route_passes_preset_a_at_n30(monkeypatch):
    """Every level of a sector that needs the high-precision route passes:
    preset A at N=30 and g = 0.5, whose level 30 fails both extracted rungs
    and passes on the decimal recurrence, before the float64 one."""
    seen = _recorded_routes(monkeypatch)
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.5)
    sec = sector_from_occupations(model, (0, 3, 30))
    assert sec.n_top == 30
    report = cross_validate(model, sec)
    assert len(report.levels) == 31
    assert report.passed, report.failing_levels()
    assert seen["_high_precision_coefficients"] == [report.solutions[30].oracle_energy]
    assert report.solutions[30].source == "refined" and not seen["_coefficients_at_energy"]


def test_candidates_pass_as_is_on_preset_a():
    """Every level of preset A at N=12, 20 and 30 passes on a candidate as-is."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    for n_top in (12, 20, 30):
        sec = sector_from_occupations(model, (0, 3, n_top))
        assert sec.n_top == n_top
        report = cross_validate(model, sec)
        assert report.passed, (n_top, report.failing_levels())


def _recorded_routes(monkeypatch):
    """Record the energy each recurrence route is called with, by route."""
    seen = collections.defaultdict(list)

    def recorded(name, route):
        def wrapper(hops, energy):
            seen[name].append(energy)
            return route(hops, energy)
        return wrapper

    for name in ("_coefficients_at_energy", "_high_precision_coefficients"):
        monkeypatch.setattr(bethe, name, recorded(name, getattr(bethe, name)))
    return seen


def _nan_rows(hops, energy):
    """A recurrence rung switched off: its rows are NaN, and the ladder
    drops every non-finite row."""
    return np.array([math.nan])


def test_ladder_builds_no_candidate_after_a_pass(monkeypatch):
    """Preset B at N=45, where levels stop as extracted and on each
    recurrence, judged a rung at a time: no recurrence sees a level kept as
    extracted and converged, every float64-recurrence energy was first
    tried on the decimal rung, and the float64 rung, the last resort, sees
    no level that passes on the decimal recurrence."""
    model, sec = _route_sector("B-45")
    seen = _recorded_routes(monkeypatch)
    sols = solve_bethe(model, sec)
    extracted = {sol.oracle_energy for sol in sols
                 if sol.source == "extracted" and sol.converged}
    float64_route, decimal_route = (set(seen[name]) for name in (
        "_coefficients_at_energy", "_high_precision_coefficients"))
    assert extracted and decimal_route and float64_route
    assert not extracted & (float64_route | decimal_route)
    assert float64_route <= decimal_route

    # the levels that pass on the decimal recurrence, with the float64 rung off
    monkeypatch.setattr(bethe, "_coefficients_at_energy", _nan_rows)
    decimal_passes = {sol.oracle_energy for sol in solve_bethe(model, sec)
                      if sol.source == "refined" and sol.converged}
    assert decimal_passes and not decimal_passes & float64_route


def test_float64_rung_rescues_levels_the_decimal_rung_fails(monkeypatch):
    """Preset A at N=60: level 58 fails the extracted and decimal rungs and
    passes only on the float64 recurrence, so the last-resort rung still
    earns its place; with it off, it comes back unconverged.  Level 57,
    which once passed there too, now passes on the twisted rows."""
    model, sec = _route_sector("A-60")
    seen = _recorded_routes(monkeypatch)
    sols = solve_bethe(model, sec)
    oracles = [sol.oracle_energy for sol in sols]
    rescued = [oracles.index(energy) for energy in seen["_coefficients_at_energy"]
               if sols[oracles.index(energy)].converged]
    assert rescued == [58]
    assert sols[57].source == "extracted" and sols[57].converged
    monkeypatch.setattr(bethe, "_coefficients_at_energy", _nan_rows)
    without = solve_bethe(model, sec)
    assert [sol.level for sol in without if not sol.converged] == [58, 59, 60]
    assert all(_same_solution(a, b) for a, b in zip(sols[:58], without[:58]))


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
        at = bethe._terms_at_roots(p_list, roots)
        return [bethe._monic_from_roots(roots), *at, bethe._scaled_robust(at),
                bethe._pole_residues(at), bethe._scaled_bae(at)]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        together = kernels(stack)
        for row in range(len(stack)):
            alone = kernels(stack[row:row + 1])
            for got, want in zip(together, alone):
                # the (M + 1, L, N) term arrays hold the root sets on axis 1
                got, want = (got[:, row], want[:, 0]) if got.ndim == 3 else (got[row], want[0])
                assert np.array_equal(got, want, equal_nan=True), row
    robust, bae = together[-3], together[-1]
    assert robust[2] == math.inf and math.isnan(bae[4])
    neighbours = [0, 1, 3, 5]
    assert np.all(np.isfinite(robust[neighbours])) and np.all(np.isfinite(bae[neighbours]))


_ZERO = np.zeros(0, dtype=complex)


@pytest.mark.parametrize("p_list, roots, bae", [
    # P_0 = 1: psi = z^2 - 1e308 vanishes exactly at +-1e154, where |psi|
    # overflows; P_0 stays out of the pole-residue form
    ([np.array([1.0 + 0j]), _ZERO, _ZERO], [1e154, -1e154], 0.0),
    # P_1 = z^2 - 1e308 vanishes exactly at the root, where |P_1| overflows
    ([_ZERO, np.array([-1e308, 0.0, 1.0 + 0j]), _ZERO], [1e154], math.inf),
], ids=["psi", "p1"])
def test_overflowed_bound_reads_as_infinite_residual(p_list, roots, bae):
    """A finite H psi over a magnitude bound that overflowed is no
    certificate: the scaled forms read inf, not 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        at = bethe._terms_at_roots(p_list, np.array([roots], dtype=complex))
        got_robust, got_bae = bethe._scaled_robust(at), bethe._scaled_bae(at)
    terms, bounds, _ = at
    assert np.all(np.isfinite(terms.sum(axis=0))) and not np.all(np.isfinite(bounds.sum(axis=0)))
    assert got_robust[0] == math.inf
    assert got_bae[0] == bae


def test_cross_validate_on_preset_b_at_n100_raises_no_runtime_warning():
    """Overflow in the residual kernels at N=100 reads as inf silently.
    Where every attempt reads inf, the ties break on the energy error: the
    level keeps the attempt closest to the oracle eigenvalue, not the
    first one judged, which is off by up to 6.8e-9 here."""
    model = preset("B", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 200))
    assert sec.n_top == 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cross_validate(model, sec)
    assert len(report.levels) == 101
    tied = [rec.energy_error for rec in report.levels if rec.residual_robust == math.inf]
    assert tied and max(tied) <= 1e-14
    assert report.max_energy_error <= 1e-9


def test_level_without_a_passing_candidate_is_reported_unconverged(monkeypatch):
    """A perturbed extracted root set and no recurrence: every level comes
    back unconverged with the extracted roots, and the report fails it."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 6))
    roots_of_rows = bethe._roots_of_rows

    def perturbed(rows):
        return [roots * (1 + 1e-4) for roots in roots_of_rows(rows)]

    def no_recurrence(hops, energy):
        return np.full(sec.dim, math.nan)

    # with both recurrences off (NaN rows, which the ladder drops), only
    # the extraction rung finds roots
    monkeypatch.setattr(bethe, "_roots_of_rows", perturbed)
    monkeypatch.setattr(bethe, "_coefficients_at_energy", no_recurrence)
    monkeypatch.setattr(bethe, "_high_precision_coefficients", no_recurrence)
    sols = solve_bethe(model, sec)
    assert len(sols) == sec.dim
    for sol in sols:
        assert sol.source == "extracted" and not sol.converged and not sol.reduced
    report = cross_validate(model, sec)
    assert not report.passed
    assert len(report.failing_levels()) == sec.dim


def test_level_no_rung_gives_a_row_is_reported_without_roots(monkeypatch):
    """NaN twisted rows, all-zero eigenvector columns and NaN recurrence
    rows: every row is dropped, so each level comes back unconverged with no
    roots and a NaN energy, and the report fails every level instead of
    raising."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 6))
    spectrum = bethe.diagonalize

    def zero_vectors(block):
        spec = spectrum(block)
        return hamiltonian.SpectrumResult(spec.energies, np.zeros_like(spec.vectors))

    def no_recurrence(hops, energy):
        return np.full(sec.dim, math.nan)

    def nan_rows(block, energies):
        return np.full((len(energies), block.dim), math.nan)

    monkeypatch.setattr(bethe, "_twisted_rows", nan_rows)
    monkeypatch.setattr(bethe, "diagonalize", zero_vectors)
    monkeypatch.setattr(bethe, "_coefficients_at_energy", no_recurrence)
    monkeypatch.setattr(bethe, "_high_precision_coefficients", no_recurrence)
    for sol in solve_bethe(model, sec):
        assert len(sol.roots) == 0 and math.isnan(sol.energy) and not sol.converged
        assert sol.residual_robust == math.inf and not sol.reduced
    report = cross_validate(model, sec)
    assert len(report.failing_levels()) == sec.dim
    assert report.max_energy_error == math.inf


# Weakly coupled general sectors on which `diagonalize` once handed back
# all-zero eigenvector columns: the norm of the rescaled vectors overflowed.
ZERO_EIGENVECTOR_SECTORS = {
    "N25": (1, 3, (1, 3, 3, 3),
            (-0.8805607244618239, -0.22429660998950007, -0.6059128657723911,
             0.4035684089957099),
            {(0, 0): 0.24490918694852448, (0, 1): -0.2936468594238939,
             (0, 2): -0.7158784833774827, (0, 3): 0.02353899100231316,
             (1, 1): -0.7761281570308303, (1, 2): 0.5127437434066098,
             (1, 3): -0.03043081691044458, (2, 2): -0.8185758488684227,
             (2, 3): 0.5202155924756955, (3, 3): -0.49225323169746926},
            0.0533002716637704, (18, 22, 28, 23)),
    "N29": (1, 3, (2, 3, 3, 3),
            (-0.9977520249752687, 0.08582853351527708, -0.4359176115999879,
             0.13687338593755505),
            {(0, 0): -0.7753063966626637, (0, 1): 0.5193544944108701,
             (0, 2): -0.7806082993596506, (0, 3): -0.452976668116299,
             (1, 1): -0.5406841807007932, (1, 2): 0.7736305332735682,
             (1, 3): -0.3266113587065682, (2, 2): -0.4916973854913722,
             (2, 3): -0.3469591993844696, (3, 3): -0.1512562003402964},
            0.040022610867044166, (39, 33, 31, 36)),
    "N34": (1, 3, (1, 2, 3, 2),
            (-0.6762976411508035, -0.9605166616504681, 0.2825525028515228,
             0.2661504072177532),
            {(0, 0): 0.5540625990502064, (0, 1): -0.7911688271251576,
             (0, 2): -0.5996453111381987, (0, 3): 0.6553763252156819,
             (1, 1): 0.5791457514793943, (1, 2): -0.21734370952245796,
             (1, 3): -0.1202684762559727, (2, 2): 0.43304260269947537,
             (2, 3): -0.5496534351909845, (3, 3): 0.35312616867405877},
            0.001236803518766196, (19, 30, 52, 30)),
}


@pytest.mark.parametrize("name", sorted(ZERO_EIGENVECTOR_SECTORS))
def test_cross_validate_reports_sectors_with_zero_eigenvectors(name):
    """`diagonalize` divides a column whose squared norm overflows by its
    largest entry first: no column is zero (4, 12 and 12 were, with an
    overflow warning), every other column is bit for bit the plain
    normalization, and `cross_validate` reports every level at full degree
    without a warning; it once raised IndexError."""
    r, s, k, w, wq, g, anchor = ZERO_EIGENVECTOR_SECTORS[name]
    model = make_model(r, s, k, w=list(w), wq=wq, g=g)
    sec = sector_from_occupations(model, anchor)
    block = build_monomial_matrix(model, sec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = diagonalize(block)
        report = cross_validate(model, sec)
    assert np.all(np.isfinite(spec.vectors)) and np.all(np.abs(spec.vectors).max(axis=0) > 0)
    assert np.allclose(np.linalg.norm(spec.vectors, axis=0), 1.0, rtol=1e-14, atol=0.0)
    sym = np.sqrt(block.upper * block.lower)
    scale = np.cumprod(np.concatenate(([1.0], block.upper / sym)))
    with np.errstate(over="ignore"):
        plain = np.linalg.eigh(np.diag(block.diag) + np.diag(sym, -1))[1] * scale[:, None]
        norms = np.linalg.norm(plain, axis=0)
    rescaled = ~np.isfinite(norms)
    assert rescaled.any()
    plain = hamiltonian._fix_phases(plain / norms)
    assert np.array_equal(spec.vectors[:, ~rescaled], plain[:, ~rescaled])
    assert len(report.levels) == sec.dim
    assert all(len(sol.roots) == sec.n_top and not sol.reduced for sol in report.solutions)


def test_no_level_is_reduced_at_weak_coupling():
    """Preset A at N=40 and g = 1e-2: levels whose eigenvector lost its
    top coefficient keep a full-degree recurrence attempt, never a
    trimmed root set with the oracle energy in place of its own (13 levels
    once did)."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=1e-2)
    sec = sector_from_occupations(model, (0, 3, 40))
    spec = diagonalize(build_monomial_matrix(model, sec))
    assert np.count_nonzero(spec.vectors[-1] == 0.0) >= 13
    sols = solve_bethe(model, sec)
    assert all(len(sol.roots) == 40 and not sol.reduced for sol in sols)


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
    sector, no direct search, and level energies and recurrences from the
    operator's own hop values: the level pass computes none afresh."""
    counts = collections.Counter()
    in_level = []
    hop_helpers = ("hop_values", "_hop_factors")

    def counted(name, func):
        def wrapper(*args, **kwargs):
            if name not in hop_helpers or in_level:
                counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("build_monomial_matrix", "diagonalize", "expand_diffop", "_float_polys",
                 "direct_search"):
        monkeypatch.setattr(bethe, name, counted(name, getattr(bethe, name)))
    for name in hop_helpers:
        wrapper = counted(name, getattr(diffop, name))
        for module in (diffop, hamiltonian, bethe):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
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
    report = cross_validate(model, sec)
    assert report.passed and len(report.solutions) == sec.dim
    assert dict(counts) == {"build_monomial_matrix": 1, "diagonalize": 2,
                            "expand_diffop": 1, "_float_polys": 1}


def test_direct_roots_build_the_operator_once_per_consumer(monkeypatch, capsys):
    """`roots --dump-diffop --direct`: the dump, the solver's ladder and the
    direct search each build the operator once, and the ladder and the
    search each build its float form once."""
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
    assert dict(counts) == {"expand_diffop": 3, "_float_polys": 2}


GRID_W = (0.4, -0.3, 0.2)
ROUTE_SECTORS = {
    "A-40": ("A", GRID_W, (0, 3, 40), 0.8),
    "B-40": ("B", GRID_W, (0, 3, 80), 0.8),
    "C-40": ("C", GRID_W + (0.1,), (0, 3, 40, 42), 0.8),
    "A-30": ("A", GRID_W, (0, 3, 30), 0.8),
    "B-45": ("B", GRID_W, (0, 3, 90), 0.8),
    "A-60": ("A", GRID_W, (0, 3, 60), 0.8),
    "B-60": ("B", GRID_W, (0, 3, 120), 0.8),
    "C-60": ("C", GRID_W + (0.1,), (0, 3, 60, 62), 0.8),
    "B-100": ("B", GRID_W, (0, 3, 200), 0.8),
    "C-100": ("C", GRID_W + (0.1,), (0, 3, 100, 102), 0.8),
    # C(m) ~ 1e-12: the float64 recurrence's coefficients pass 1e200 and
    # are rescaled
    "A-30-weak": ("A", GRID_W, (0, 3, 30), 1e-12),
}
N40_GRID = ("A-40", "B-40", "C-40")


def _route_sector(name):
    case, w, occ, g = ROUTE_SECTORS[name]
    model = preset(case, w=list(w), wq={(0, 1): 0.5}, g=g)
    return model, sector_from_occupations(model, occ)


def _general_sectors(seed, count, n_range=(16, 24), log_g=False):
    """`count` sectors with N in `n_range` (16..24 by default) of general
    models with r, s, k_i in 1..3 and couplings drawn as in the acceptance
    suite's three-way check, but for g log-uniform in [1e-3, 2] with
    `log_g`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, s = (int(x) for x in rng.integers(1, 4, 2))
        k = [int(x) for x in rng.integers(1, 4, r + s)]
        w = rng.uniform(-1, 1, r + s)
        wq = {(i, j): rng.uniform(-1, 1) for i in range(r + s) for j in range(i, r + s)}
        g = 10 ** rng.uniform(-3, math.log10(2)) if log_g else rng.uniform(0.1, 2.0)
        model = make_model(r, s, k, w=w, wq=wq, g=g)
        # N is the lowest tower level of group 1 plus that of group 2
        n_top = int(rng.integers(n_range[0], n_range[1] + 1))
        down = int(rng.integers(0, n_top + 1))
        levels = [down] * r + [n_top - down] * s
        sec = sector_from_occupations(
            model, [ki * level + int(rng.integers(0, ki)) for ki, level in zip(k, levels)])
        assert sec.n_top == n_top
        yield model, sec


@pytest.mark.parametrize("name", [*N40_GRID, "A-30", "A-60", "B-100", "C-100", "A-30-exact",
                                  "general"])
def test_high_precision_route_matches_mpmath_reference(name):
    """The decimal route, at its max(40, 20 + 2N) digits, gives the float64
    coefficients of the mpmath route at max(50, 30 + 4N) digits exactly, on
    every level of the N=40 grid, of preset A at N=30 and N=60, of one
    sector whose couplings (and so hop values) are exact fractions, of
    three general-model sectors with N in 16..24, and on every 4th level of
    presets B and C at N=100."""
    if name.endswith("exact"):
        model = preset("A", w=[Fraction(2, 5), Fraction(-3, 10), Fraction(1, 5)],
                       wq={(0, 1): Fraction(1, 2)}, g=Fraction(4, 5))
        sectors = [(model, sector_from_occupations(model, (0, 3, 30)))]
    elif name == "general":
        sectors = list(_general_sectors(13, 3))
    else:
        sectors = [_route_sector(name)]
    stride = 4 if name.endswith("100") else 1
    for model, sec in sectors:
        op = expand_diffop(model, sec)
        if name.endswith("exact"):
            assert all(isinstance(c, Fraction) for c in op.hop_values[2])
        hops = bethe._working_hops(op.hop_values)
        for energy in diagonalize(build_monomial_matrix(model, sec)).energies[::stride]:
            got = bethe._high_precision_coefficients(hops, float(energy))
            assert np.array_equal(got, high_precision_coefficients(op, float(energy))), energy


@pytest.mark.parametrize("name", [*N40_GRID, "A-60", "B-60", "C-60", "A-30-weak"])
def test_float64_route_matches_reference_recurrence(name):
    """The float64 route, on the monomial block's hop values, gives the
    reference recurrence's coefficients exactly on every level of the N=40
    grid, of presets A, B and C at N=60, and of a weakly coupled sector
    whose coefficients are rescaled on the way."""
    model, sec = _route_sector(name)
    op = expand_diffop(model, sec)
    block = build_monomial_matrix(model, sec)
    hops = [x.tolist() for x in (block.upper, block.diag, block.lower)]
    for energy in diagonalize(block).energies.tolist():
        got = bethe._coefficients_at_energy(hops, energy)
        assert np.array_equal(got, float64_coefficients(op, energy)), energy


def _assert_returned_roots_are_scored(model, sec):
    """Each level's reported robust residual is that of the roots it
    returns, and a passing level's returned roots meet the 1e-10 gate."""
    p_list = bethe._float_polys(expand_diffop(model, sec))
    report = cross_validate(model, sec)
    for rec, sol in zip(report.levels, report.solutions):
        stack = np.array(sol.roots, dtype=complex)[None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            resid = float(bethe._scaled_robust(bethe._terms_at_roots(p_list, stack))[0])
        assert resid == sol.residual_robust, rec
        if rec.ok:
            assert resid <= 1e-10, rec


@pytest.mark.parametrize("name", N40_GRID)
def test_passing_levels_certify_their_returned_roots_on_the_n40_grid(name):
    """Snapping conjugate pairs onto the axis can move passing roots off
    their certificate: on preset A at N=40, levels 34-37 and 39 read up to
    1e-9 once snapped at 1e-8 of the root scale."""
    _assert_returned_roots_are_scored(*_route_sector(name))


@pytest.mark.parametrize("name", N40_GRID)
def test_n40_grid_never_reaches_the_float64_rung(monkeypatch, name):
    """Every level of the N=40 grid passes on its twisted row, so neither
    recurrence builds a row there: the complex float64 one built 21 per
    sector while it came before the decimal rung, and the decimal one 5-36
    while the eigenvector came first."""
    seen = _recorded_routes(monkeypatch)
    report = cross_validate(*_route_sector(name))
    assert report.passed
    assert all(sol.source == "extracted" for sol in report.solutions)
    assert not seen["_coefficients_at_energy"] and not seen["_high_precision_coefficients"]


@pytest.mark.parametrize("name", N40_GRID)
def test_n40_grid_solves_one_companion_matrix_per_level(monkeypatch, name):
    """One grid sector gives `_roots_of_rows` its 41 rows, all in one call,
    and builds no decimal row (a grid cycle built 63 and 186 companion
    matrices while the eigenvector rung came first)."""
    stacks = []
    roots_of_rows = bethe._roots_of_rows

    def counted(rows):
        stacks.append(len(rows))
        return roots_of_rows(rows)

    def no_decimal_row(hops, energy):
        raise AssertionError("the decimal rung built a row")

    monkeypatch.setattr(bethe, "_roots_of_rows", counted)
    monkeypatch.setattr(bethe, "_high_precision_coefficients", no_decimal_row)
    solve_bethe(*_route_sector(name))
    assert stacks == [41]


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_weakly_coupled_n40_levels_keep_their_energies(name):
    """Presets A/B/C at N=40, g = 1e-2: the twisted rows keep the tiny
    components that the eigenvector flushes and the decimal rung's digits
    lose, so no level's energy is off by more than 1e-8 (the worst was
    1.7, on A), and at most 13, 14 and 14 levels fail (34, 25 and 29 did),
    each on its residual."""
    case, w, occ, _ = ROUTE_SECTORS[f"{name}-40"]
    model = preset(case, w=list(w), wq={(0, 1): 0.5}, g=1e-2)
    report = cross_validate(model, sector_from_occupations(model, occ))
    assert report.max_energy_error <= 1e-8
    failing = report.failing_levels()
    assert len(failing) <= {"A": 13, "B": 14, "C": 14}[name]
    assert all(rec.residual_robust > 1e-10 for rec in failing)


@st.composite
def _float_models_and_sectors(draw):
    """A model with r, s, k_i in 1..3, couplings drawn as in the acceptance
    suite's three-way check, and a sector anchored at m_i < 7 k_i, so that
    N <= 12."""
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = r + s
    k = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    coupling = st.floats(-1.0, 1.0)
    w = draw(st.lists(coupling, min_size=n, max_size=n))
    wq = {(i, j): draw(coupling) for i in range(n) for j in range(i, n)}
    model = make_model(r, s, k, w=w, wq=wq, g=draw(st.floats(0.1, 2.0)))
    return model, sector_from_occupations(model, [draw(st.integers(0, 7 * ki - 1)) for ki in k])


@settings(max_examples=100, deadline=None)
@given(case=_float_models_and_sectors())
def test_passing_levels_certify_their_returned_roots(case):
    """The rule of the N=40 grid test, over random sectors with N <= 12."""
    model, sec = case
    assert sec.n_top <= 12
    _assert_returned_roots_are_scored(model, sec)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=2614)
def test_twisted_rows_match_the_settled_mpmath_rows(seed):
    """The twisted rows at each level's eigenvalue, rounded to float64,
    against mpmath's rows at digits that no longer change them, up to sign:
    over general sectors with N <= 20 and g log-uniform in [1e-3, 2], every
    row whose entries are all finite and nonzero agrees componentwise to
    1e-10, each entry on its own scale.

    An entry between two of opposite sign and smaller than both is what is
    left of a cancellation, and its scale is the smaller neighbor: rounding
    the eigenvalue to float64 alone moves it.  On the @example, level 14's
    entry 6 (-2.5e-11, between -2.4e-6 and 1.4e-3) is 4.8e-10 of itself
    off the settled row, and the exact solution of (M - E) z = e_k at the
    same float64 E is 4.6e-10 off too; on its neighbor's scale it is off
    by 4.9e-15.  The bound is measured: over the sectors of seeds 0-19999
    (219,741 rows) the largest gap on these scales was 1.25e-11.  Two rows
    (seeds 2614 and 8403) exceed 1e-10 of each entry itself, both at such
    an entry.  At `diagonalize`'s eigenvalues, which the ladder uses, the
    eigensolver's error of up to eps * ||M|| reaches the rows as well: over
    seeds 0-4999 the largest gap of each entry to itself is then 3.5e-9."""
    model, sec = next(_general_sectors(seed, 1, n_range=(0, 20), log_g=True))
    block = build_monomial_matrix(model, sec)
    op = expand_diffop(model, sec)
    settled = [settled_coefficients(op, energy)
               for energy in diagonalize(block).energies.tolist()]
    energies = np.array([energy for energy, _ in settled])
    for row, (_, want) in zip(bethe._twisted_rows(block, energies), settled):
        if np.all(np.isfinite(row)) and np.all(row != 0) and np.all(want != 0):
            scale = np.abs(want)
            side = np.minimum(scale[:-2], scale[2:])
            dip = (np.sign(want[:-2]) != np.sign(want[2:])) & (scale[1:-1] < side)
            scale[1:-1][dip] = side[dip]
            gap = np.abs(row * np.sign(row[0]) - want) / scale
            assert np.max(gap) <= 1e-10, (seed, np.max(gap))


def test_high_precision_route_raises_without_interaction():
    """At g = 0 every C(m) vanishes; both routes raise ZeroDivisionError,
    whether the first recurrence step divides x/0 or 0/0."""
    model = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
    sec = sector_from_occupations(model, (0, 0, 4))
    op = expand_diffop(model, sec)
    hops = bethe._working_hops(op.hop_values)
    for m in (0, 1):   # E = B(0): (E - B(0)) / C(1) is 0/0; E = B(1): x/0
        energy = float(op.hop_values[1][m])
        with pytest.raises(ZeroDivisionError):
            high_precision_coefficients(op, energy)
        with pytest.raises(ZeroDivisionError):
            bethe._high_precision_coefficients(hops, energy)


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
