"""Root equations, energies, solver pipeline, and cross-validation."""

import collections
import contextlib
import copy
import functools
import importlib.util
import itertools
import math
import os
import pathlib
import pickle
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiboson import (bethe, bethe_residuals, build_monomial_matrix,
                        canonicalize_roots, cross_validate, diagonalize, direct_search,
                        energy_from_roots, expand_diffop, make_model, occupations_at, preset,
                        robust_residuals, sector_from_occupations, solve_bethe)
from multiboson import (Polynomial, apply_to_polynomial, cli, diffop, hamiltonian,
                        verify_case, verify_single_mode_algebra)
from multiboson.bethe import _monic_from_roots
from numpy.polynomial import polynomial as npoly
from oracles import canonicalize_roots as scalar_canonicalize_roots
from oracles import (has_close_pair, high_precision_coefficients, hop_polynomials, poly_value,
                     robust_residual_mp, settled_coefficients, subset_bae_residuals,
                     terms_at_roots)


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


@pytest.mark.parametrize("residuals", [bethe_residuals, robust_residuals])
def test_residuals_reject_more_than_n_roots(residuals):
    """More than N roots make a psi outside the invariant subspace: a
    ValueError naming N, as `energy_from_roots` and `apply_to_polynomial`
    raise on the same input (both residual forms once returned numbers).
    Fewer roots, as a reduced level's psi has, stay allowed."""
    model = preset("A", w=[0.4, -0.3, 0.2], g=0.8)
    sec = sector_from_occupations(model, (0, 3, 4))
    op = expand_diffop(model, sec)
    assert op.n_top == 4
    for count in (5, 6):
        roots = [0.1 * (j + 1) for j in range(count)]
        with pytest.raises(ValueError, match="N=4"):
            residuals(op, roots)
        with pytest.raises(ValueError, match="N=4"):
            energy_from_roots(model, sec, roots)
    assert len(residuals(op, [0.1, 0.2, 0.3])) == 3


def _scaled_row(row):
    """(sigma, scaled row) of one row of `_roots_of_rows`, as that function
    defines them: sigma = (|c_low| / |c_N|)^(1 / (N - low)), c_low the
    lowest nonzero coefficient, and the row of z = sigma w from c_N down to
    c_low, high order first, c_(N-j) / sigma^j."""
    low = int(np.flatnonzero(row)[0])
    size = len(row) - 1 - low
    sigma = (np.abs(row[low:low + 1]) / np.abs(row[-1:])) ** (1 / max(size, 1))
    return sigma, row[low:][::-1] / sigma ** np.arange(size + 1)


def _scaled_numpy_roots(row):
    """The reference for one row of `_roots_of_rows`: sigma times
    `np.roots` of the scaled row (`_scaled_row`), the real and imaginary
    parts each multiplied by sigma, with a root at 0 for each zero constant
    term; None where the scaled row is not finite.  `np.roots` raises
    LinAlgError where LAPACK does not converge on the scaled row."""
    sigma, scaled = _scaled_row(row)
    if not (np.all(np.isfinite(scaled)) and np.isfinite(sigma[0])):
        return None
    low = len(row) - len(scaled)
    want = np.roots(np.concatenate((scaled, np.zeros(low, row.dtype)))).astype(complex)
    want.real *= sigma
    want.imag *= sigma
    return want


def _companion_top(row):
    """The first row of the companion matrix `_roots_of_rows` builds for a
    row."""
    scaled = _scaled_row(row)[1]
    return -scaled[1:] / scaled[0]


def test_roots_of_rows_examples(monkeypatch):
    """Each row's roots, low-order coefficient first: each zero constant
    term gives a root at 0 after the others, a tiny nonzero top coefficient
    still counts, and a row with a zero top coefficient or a non-finite
    entry has no roots.  Each root set is sigma times `np.roots` of the
    row scaled to z = sigma w.  A row whose eigensolve fails drops out of
    the mask while the rest of its stack keeps its roots."""
    rows = np.array([[-6.0, 11.0, -6.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0],
                     [1.0, 1.0, 1.0, 1e-18], [1.0, 1.0, 0.0, 0.0], [1.0, math.nan, 1.0, 1.0],
                     [1.0, 1.0, 1.0, math.inf]])
    roots, has = bethe._roots_of_rows(rows)
    assert roots.shape == (7, 3) and roots.dtype == complex
    assert has.tolist() == [True] * 4 + [False] * 3
    assert np.allclose(np.sort(roots[0]), [1.0, 2.0, 3.0])
    assert roots[1].tolist() == [0.0, 0.0, 0.0]
    assert roots[2].tolist() == [-1.0, 0.0, 0.0]
    assert np.all(np.isfinite(roots[3]))
    for row, root_set in zip(rows[:4], roots):
        assert root_set.tobytes() == _scaled_numpy_roots(row).tobytes()
    eigvals = np.linalg.eigvals

    def fails_on_one(a):
        if np.any(a == 1.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", fails_on_one)
    # z - 7 and z + 1 scale to w - 1 (sigma = 7) and w + 1 (sigma = 1), and
    # their companion matrices, [[1]] and [[-1]], share one stack
    roots, has = bethe._roots_of_rows(np.array([[-7.0, 1.0], [1.0, 1.0]]))
    assert has.tolist() == [False, True] and roots[1].tolist() == [-1.0]


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
    """1..8 `_coefficient_row`s of one degree 1..59 (often a small or shared
    one) and one dtype, each with up to two exact-zero constant and top
    coefficients, as one (L, N + 1) array."""
    degree = draw(st.one_of(st.sampled_from((1, 2, 12)), st.integers(1, 59)))
    as_complex = draw(st.booleans())
    drawn = draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2),
                                    st.integers(0, 2)), min_size=1, max_size=8))
    return np.array([_coefficient_row(seed, degree, low_zeros, top_zeros, as_complex)
                     for seed, low_zeros, top_zeros in drawn])


# derandomized: the same rows every run; a drawn row on which zgeev does not
# converge costs up to 16 s per eigensolve and once made this test flaky
@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=_coefficient_rows())
# zgeev did not converge on the first, complex row before rows were scaled
# (np.roots raised on it alone in about 0.5 s; the degree-54 row of seed 1201
# took about 16 s); its scaled form converges
@example(rows=np.array([_coefficient_row(3998, 12, 0, 0, True),
                        _coefficient_row(7, 12, 0, 0, True)]))
# zgeev does not converge on the scaled form of the first, complex row
@example(rows=np.array([_coefficient_row(65, 12, 0, 0, True),
                        _coefficient_row(7, 12, 0, 0, True)]))
def test_roots_of_rows_match_numpy_roots_bit_for_bit(rows):
    """The stacked companion eigensolve gives each row with a nonzero top
    coefficient exactly what sigma times `np.roots` of its scaled row gives
    it alone (`_scaled_numpy_roots`), down to every bit, zero constant
    terms included.  A row with a zero top coefficient has no roots.  Where
    LAPACK does not converge on a row, and `np.roots` raises LinAlgError on
    its scaled form, that row has no roots and every other row of the
    stack still gets its reference bit for bit."""
    roots, has = bethe._roots_of_rows(rows)
    assert roots.shape == (len(rows), rows.shape[1] - 1) and roots.dtype == complex
    for row, root_set, has_roots in zip(rows, roots, has.tolist()):
        if row[-1] == 0:
            assert not has_roots
            continue
        try:
            want = _scaled_numpy_roots(row)
        except np.linalg.LinAlgError:
            want = None
        if want is None:
            assert not has_roots
            continue
        assert has_roots and root_set.tobytes() == want.tobytes()


@st.composite
def _horner_cases(draw):
    """(L, N + 1) coefficients, (L, K) points and a derivative order M,
    both arrays float64 or both complex128, as the residual kernels pass
    them: any floats, signed zeros, infinities and NaNs included, N up to
    30 and M from 1, as every operator's, up to 9."""
    rows, degree, count = draw(st.integers(1, 4)), draw(st.integers(0, 30)), draw(st.integers(1, 5))
    real = draw(st.booleans())
    value, dtype = (st.floats(), float) if real else (st.complex_numbers(), complex)

    def array(shape):
        n = shape[0] * shape[1]
        return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=dtype).reshape(shape)

    return array((rows, degree + 1)), array((rows, count)), draw(st.integers(1, 9))


def _same_bits(got, want):
    """Every real and imaginary part equal bit for bit, signed zeros and
    infinities included, save that a NaN matches any NaN: which operand's
    NaN an operation passes on follows numpy's choice of loop for the
    operands' shapes, and no residual, verdict or printed value reads it."""
    assert got.dtype == want.dtype and got.shape == want.shape
    for a, b in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b))
        assert a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_horner_cases())
def test_horner_and_derivative_match_numpy_polynomial_bit_for_bit(case):
    """One `_horner` sweep over the planes of `_derivatives` gives, for
    every order i <= M, `npoly.polyval` of the i-th `npoly.polyder` (one
    derivative after another, as `oracles.terms_at_roots` takes them):
    each row is monic, as psi is, so a derivative past its degree is zero
    for both.  The same sweep over rows zero-padded to a common length,
    shared by every point (the P_i), gives `npoly.polyval` of each row.

    Each sweep holds two polynomials at least, as the kernel's M + 1 >= 2
    do: numpy multiplies a lone complex value in place without the fused
    multiply-add of its vector loop, a last-bit difference from polyval."""
    coeffs, points, order = case
    # row r of the shared planes is coefficient row r cut to its first
    # max(N + 1 - r, 1) coefficients; a last one is row 0's constant
    shared_rows = [row[:max(len(row) - r, 1)] for r, row in enumerate(coeffs)] + [coeffs[0, :1]]
    shared = np.zeros((coeffs.shape[1], len(shared_rows), 1, 1), dtype=coeffs.dtype)
    for r, row in enumerate(shared_rows):
        shared[:len(row), r, 0, 0] = row
    with np.errstate(all="ignore"):
        got = bethe._horner(shared, points)
        for r, row in enumerate(shared_rows):
            _same_bits(got[r], npoly.polyval(points, row))
        coeffs[:, -1] = 1
        got = bethe._horner(bethe._derivatives(coeffs, order), points)
        assert got.shape == (order + 1,) + points.shape
        deriv = coeffs
        for i in range(order + 1):
            _same_bits(got[i], npoly.polyval(points, deriv.T[:, :, None], tensor=False))
            deriv = npoly.polyder(deriv, axis=-1)


def _same_solution(a, b):
    """Whether two solutions are equal, roots bit for bit (the repr of an
    array rounds them to 8 digits)."""
    return repr(a) == repr(b) and a.roots.tobytes() == b.roots.tobytes()


def test_a_failed_eigensolve_drops_one_row_not_the_rung(monkeypatch):
    """An eigensolver that does not converge on one level's companion
    matrix costs that level its roots, not the whole stack: the stack is
    redone a matrix at a time, the level comes back unconverged with no
    roots and a NaN energy (there is no second route), every other level
    keeps its roots bit for bit, and `cross_validate` reports."""
    model, sec = _route_sector("A-30")
    clean = solve_bethe(model, sec)
    level = 0
    assert clean[level].source == "extracted" and clean[level].converged
    assert clean[level].residual_robust <= 1e-12
    p = diagonalize(build_monomial_matrix(model, sec)).vectors[:, level]
    assert p[0] != 0 and p[-1] != 0
    top_row = _companion_top(p)
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
    failed = report.solutions[level]
    assert not failed.converged and len(failed.roots) == 0 and math.isnan(failed.energy)
    assert [rec.level for rec in report.failing_levels()] == [level]
    assert bethe._roots_of_rows(p[None])[1].tolist() == [False]


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may use two CPUs, so a stack of at least twice
    `_PART_WORK` is solved in two parts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_solve_makes_one_stacked_eigensolve_per_rung(monkeypatch, two_cpus):
    """Preset A at N=60: the block is factorized once, in float64, and one
    `_roots_of_rows` call finds the roots of all 61 levels, 61 companion
    matrices, each solved exactly once, in one `np.linalg.eigvals` call per
    CPU, 31 and 30 matrices.  No level gets an `np.roots` call of its own
    (104 of them on preset A at N=40 once), and the candidates are
    canonicalized as one stack, not one call per candidate (67 calls here,
    1230 in ten cycles of the N=40 grid, once).  Every level converges,
    and its roots are a read-only copy of their own, never a view that
    keeps the stack alive."""
    stacks, lengths, canonical, calls = [], [], [], collections.Counter()
    eigvals, roots, twisted_rows = np.linalg.eigvals, np.roots, hamiltonian._twisted_rows
    roots_of_rows, stacked_canonical = bethe._roots_of_rows, bethe._canonical

    def per_call(rows):
        stacks.append(collections.Counter())
        lengths.append([])
        return roots_of_rows(rows)

    def stacked(a):   # may run on a worker thread, while its `per_call` waits
        matrices = a if a.ndim == 3 else [a]
        stacks[-1].update((m.dtype.str, m.shape, m.tobytes()) for m in matrices)
        lengths[-1].append(len(matrices))
        return eigvals(a)

    def canonicalized(stack):
        canonical.append(stack.shape)
        return stacked_canonical(stack)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bethe, "_roots_of_rows", per_call)
    monkeypatch.setattr(np.linalg, "eigvals", stacked)
    monkeypatch.setattr(np, "roots", counted("roots", roots))
    def factorized(block, energies):
        calls[f"_twisted_rows {block.diag.dtype}"] += 1
        return twisted_rows(block, energies)

    monkeypatch.setattr(hamiltonian, "_twisted_rows", factorized)
    monkeypatch.setattr(bethe, "_canonical", canonicalized)
    report = cross_validate(*_route_sector("A-60"))
    assert [sum(matrices.values()) for matrices in stacks] == [61]
    assert all(set(matrices.values()) == {1} for matrices in stacks)
    assert [sorted(parts, reverse=True) for parts in lengths] == [[31, 30]]
    assert canonical == [(61, 60)]
    assert dict(calls) == {"_twisted_rows float64": 1}
    assert all(sol.converged and sol.residual_robust <= 1e-12 for sol in report.solutions)
    assert report.passed
    for sol in report.solutions:
        assert sol.roots.base is None and not sol.roots.flags.writeable
        assert sol.roots.shape == (60,)


def _assert_numpy_roots(got, rows, failed=()):
    """Each row's roots are sigma times `np.roots` of its scaled row, bit
    for bit (`_scaled_numpy_roots`), except the rows in `failed`, which
    have none."""
    roots, has = got
    assert roots.shape == (len(rows), rows.shape[1] - 1)
    assert np.flatnonzero(~has).tolist() == sorted(failed)
    for row, root_set, has_roots in zip(rows, roots, has.tolist()):
        if has_roots:
            assert root_set.tobytes() == _scaled_numpy_roots(row).tobytes()


def test_split_eigensolve_matches_numpy_roots_bit_for_bit(monkeypatch, two_cpus):
    """A-60's rows (61 companion matrices of size 60, above the split
    bound) are solved in two parts, 31 on the calling thread and 30 on a
    worker thread, each under the caller's numpy error state, and every
    row's roots are sigma times `np.roots` of its scaled row, bit for bit.
    So are those of a stack whose parts differ in result dtype: its first
    part has only real roots and comes back real, its second does not."""
    model, sec = _route_sector("A-60")
    twisted = diagonalize(build_monomial_matrix(model, sec)).vectors.T
    rng = np.random.default_rng(11)
    # degree 12, so 600 matrices are above the bound: real, well separated
    # roots near 1..12, then random coefficients with complex roots
    real = [np.poly(np.arange(1.0, 13.0) + rng.uniform(-0.2, 0.2, 12))[::-1] for _ in range(300)]
    mixed = np.vstack((real, rng.standard_normal((300, 13))))
    eigvals, calls = np.linalg.eigvals, []

    def recorded(a):   # per call: the part's length, result dtype, thread, error state
        values = eigvals(a)
        calls.append((len(a), values.dtype, threading.current_thread(), np.geterr()))
        return values

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    for rows, sizes, dtypes in ((twisted, [31, 30], [complex, complex]),
                                (mixed, [300, 300], [float, complex])):
        assert len(rows) * (len(rows[0]) - 1) ** 3 >= 2 * bethe._PART_WORK
        calls.clear()
        with np.errstate(over="ignore", under="raise", invalid="warn", divide="ignore"):
            got = bethe._roots_of_rows(rows)
            caller = np.geterr()
        _assert_numpy_roots(got, rows)
        # in the order of the stack: the calling thread's part first
        calls.sort(key=lambda call: call[2] is not threading.current_thread())
        assert [length for length, _, _, _ in calls] == sizes
        assert [dtype for _, dtype, _, _ in calls] == dtypes
        assert [thread is threading.current_thread() for _, _, thread, _ in calls] == [True, False]
        assert all(state == caller for _, _, _, state in calls)


def test_split_eigensolve_failure_drops_one_row(monkeypatch, two_cpus):
    """A matrix of the worker thread's part that LAPACK does not converge on
    makes that part raise; once both parts are done, the stack is redone
    one matrix at a time, each scaled back by its own row's sigma, and only
    that row comes back without roots."""
    model, sec = _route_sector("A-60")
    rows = diagonalize(build_monomial_matrix(model, sec)).vectors.T
    top_row = _companion_top(rows[45])
    eigvals, raised = np.linalg.eigvals, []

    def flaky(a):
        if any(np.array_equal(m[0], top_row) for m in (a if a.ndim == 3 else [a])):
            raised.append((len(a) if a.ndim == 3 else 1, threading.current_thread()))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    got = bethe._roots_of_rows(rows)
    assert raised[0][0] == 30 and raised[0][1] is not threading.current_thread()
    assert [length for length, _ in raised[1:]] == [1]
    _assert_numpy_roots(got, rows, failed={45})


def test_split_eigensolve_cuts_a_part_per_cpu(monkeypatch):
    """On eight CPUs, A-60's rows (61 companion matrices of size 60, 1.3e7
    of work) are solved in eight parts of 8, 8, 8, 8, 8, 7, 7 and 7
    matrices: the first on the calling thread, each other on a worker
    thread of its own, and none below `_PART_WORK`.  Three of those rows
    (6.5e5 of work, under twice the floor) stay one call on the calling
    thread.  Either way every row's roots are sigma times `np.roots` of its
    scaled row, bit for bit."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    model, sec = _route_sector("A-60")
    rows = diagonalize(build_monomial_matrix(model, sec)).vectors.T
    eigvals, calls = np.linalg.eigvals, []

    def recorded(a):   # per call: the part's length and thread
        calls.append((len(a), threading.current_thread()))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    caller = threading.current_thread()
    for stack, sizes in ((rows, [8, 8, 8, 8, 8, 7, 7, 7]), (rows[:3], [3])):
        calls.clear()
        got = bethe._roots_of_rows(stack)
        _assert_numpy_roots(got, stack)
        assert sorted((length for length, _ in calls), reverse=True) == sizes
        assert [length for length, thread in calls if thread is caller] == [sizes[0]]
        workers = [thread for _, thread in calls if thread is not caller]
        assert len(set(workers)) == len(workers) == len(sizes) - 1
        assert all(length * 60 ** 3 >= bethe._PART_WORK for length, _ in calls)


def test_concurrent_cross_validate_matches_a_serial_run(monkeypatch, two_cpus):
    """Four user threads running `cross_validate` on B-60 and C-60 at once,
    twice each, on two CPUs and with a short switch interval, each splitting
    its own stacks, give the reports a serial run gives, pickled byte for
    byte.  So does a run on a single CPU, which solves every stack on the
    calling thread."""
    sectors = [_route_sector(name) for name in ("B-60", "C-60")]
    serial = [pickle.dumps(cross_validate(*sector)) for sector in sectors]
    threaded = [None] * 4

    def run(index):
        threaded[index] = pickle.dumps(cross_validate(*sectors[index % 2]))

    threads = [threading.Thread(target=run, args=(index,)) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == serial * 2
    eigvals, callers = np.linalg.eigvals, set()

    def recorded(a):
        callers.add(threading.current_thread())
        return eigvals(a)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    assert [pickle.dumps(cross_validate(*sector)) for sector in sectors] == serial
    assert callers == {threading.current_thread()}


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


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_direct_solutions_read_as_their_own_stack_of_one(seed):
    """The direct search judges its converged starts as one stack; each
    solution reads bit for bit what a stack of one built from its own
    roots reads.  Its roots are their own canonical form, its robust
    residual is that of the stack, its energy is `energy_from_roots` of
    its roots, and its pole-residue residual is NaN exactly where a pair
    of roots lies within 1e-10 of the root scale, and that of the stack
    elsewhere.  On preset A at N = 3 (the CLI's `roots --direct` sector),
    there also with its defaults (no w, g = 0: every P_i is zero, and
    every start is certified), and a general sector with N in 2..5; zero
    starts on any return no solution."""
    preset_a = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    cases = [(model, sector_from_occupations(model, (0, 3, 3)))
             for model in (preset_a, preset("A"))]
    cases.append(next(_general_sectors(seed, 1, n_range=(2, 5))))
    found = 0
    for model, sec in cases:
        assert sec.n_top >= 1 and direct_search(model, sec, starts=0, seed=seed) == []
        p_list = bethe._float_polys(expand_diffop(model, sec))
        for sol in direct_search(model, sec, starts=24, seed=seed):
            found += 1
            stack = np.array(sol.roots)[None]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                assert bethe._canonical(stack).tobytes() == stack.tobytes()
                at = bethe._terms_at_roots(p_list, stack)
                assert sol.residual_robust.hex() == float(bethe._scaled_robust(at)[0]).hex()
                assert sol.energy.hex() == float(energy_from_roots(model, sec, sol.roots)).hex()
                close = bethe._close_sorted(np.sort(stack, axis=1), 1e-10)[0]
                assert math.isnan(sol.residual_bae) == close
                if not close:
                    assert sol.residual_bae.hex() == float(bethe._scaled_bae(at)[0]).hex()
    assert found


@pytest.mark.parametrize("func, args, setting", [
    (solve_bethe, (MODEL_A, SEC_A), {"starts": 8}),
    (solve_bethe, (MODEL_A, SEC_A), {"seed": 1}),
    (energy_from_roots, (MODEL_A, SEC_A, (1.0,)), {"imag_tol": 1e-4}),
    (verify_case, ("A",), {"bae_tol": 1e-6}),
    (verify_single_mode_algebra, (2,), {"tol": 1e-6}),
    (solve_bethe, (MODEL_A, SEC_A), {"energy_tol": 1e-6}),
    (cross_validate, (MODEL_A, SEC_A), {"energy_tol": 1e-6}),
], ids=["solve_bethe-starts", "solve_bethe-seed", "energy_from_roots-imag_tol",
        "verify_case-bae_tol", "verify_single_mode_algebra-tol", "solve_bethe-energy_tol",
        "cross_validate-energy_tol"])
def test_removed_settings_are_rejected(func, args, setting):
    """The direct search is its own call, and the energy, imaginary-part,
    table-form and algebra tolerances are fixed: no caller sets them."""
    with pytest.raises(TypeError, match=next(iter(setting))):
        func(*args, **setting)


def test_closed_form_energy_has_one_imaginary_part_rule():
    """An imaginary leftover above 1e-8 of max(1, |Re E|) rejects a root
    set, in `energy_from_roots` and in the solve path's stacked energies
    alike; one below it is dropped.  Neither rule takes a tolerance."""
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
            assert bethe._closed_form_energies(op, np.array([roots]))[0] == energy
        else:
            with pytest.raises(ValueError, match="imaginary part"):
                energy_from_roots(model, sec, roots)
            assert math.isnan(bethe._closed_form_energies(op, np.array([roots]))[0])


def test_stacked_energies_match_energy_from_roots():
    """The closed-form energies of a stack are bit for bit `energy_from_roots`
    of each row, NaN where it raises: the stack is summed left to right, as
    Python's `sum` adds a root set, not in `np.sum`'s pairwise order."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 12))
    op = expand_diffop(model, sec)
    rng = np.random.default_rng(3)
    half = rng.standard_normal((200, 6)) * 10.0 ** rng.integers(-3, 4, (200, 6))
    half = half + 1j * rng.standard_normal((200, 6))
    stack = np.concatenate((half, half.conj()), axis=1)
    stack[::4, 0] += 1e-3j        # an imaginary leftover the rule rejects
    rng.permuted(stack, axis=1, out=stack)
    want = []
    for row in stack.tolist():
        try:
            want.append(energy_from_roots(model, sec, row))
        except ValueError:
            want.append(math.nan)
    got = bethe._closed_form_energies(op, stack)
    assert got.tobytes() == np.array(want).tobytes()
    assert np.isnan(got[::4]).all() and not np.isnan(got[1::4]).any()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_stacked_energies_of_any_sum_match_energy_from_roots(exact):
    """Root sums with infinite, NaN, signed-zero and overflowing parts, on a
    model with float couplings and on one with `Fraction` couplings (whose
    hop values are exact): each stacked energy is `energy_from_roots` of
    its row, bit for bit, and NaN where that call raises.  A NaN imaginary
    part rejects nothing there, and a NaN real part leaves the scale at 1."""
    number = Fraction if exact else (lambda num, den: num / den)
    model = preset("A", w=[number(2, 5), number(-3, 10), number(1, 5)],
                   wq={(0, 1): number(1, 2)}, g=number(4, 5))
    sec = sector_from_occupations(model, (0, 3, 3))
    op = expand_diffop(model, sec)
    assert isinstance(op.hop_values[0][-1], Fraction) == exact
    parts = [0.0, -0.0, 1.5, -1e-12, 1e308, math.inf, -math.inf, math.nan]
    rows = [[complex(a, b), complex(c, d), 0j] for a in parts for b in parts
            for c in (0.0, 1e308, -math.inf) for d in (0.0, -0.0, 1e308, math.nan)]
    want = []
    for row in rows:
        try:
            want.append(energy_from_roots(model, sec, row))
        except ValueError:
            want.append(math.nan)
    want = np.array(want)
    with np.errstate(over="ignore", invalid="ignore"):
        got = bethe._closed_form_energies(op, np.array(rows))
    _same_bits(got, want)
    # sums that are infinite, NaN or rejected all occur
    assert np.isinf(want).any() and np.isnan(want).any() and np.isfinite(want).any()


def test_canonicalize_roots():
    canon = canonicalize_roots([1 + 1e-12j, -2.0, 0.5 + 0.25j, 0.5 - 0.25j + 1e-13j])
    assert canon[0] == -2.0
    assert (1.0 + 0.0j) in canon         # snapped to the real axis
    pair = [z for z in canon if abs(z.imag) > 0]
    assert len(pair) == 2 and pair[0] == pair[1].conjugate()
    assert list(canon) == sorted(canon, key=lambda z: (z.real, z.imag))


# Dyadic parts keep every sum and difference exact, so two lower roots at
# conj(a) + d and conj(a) - d, d real or imaginary, are exactly as far from
# conj(a): a tie.
_DYADIC = st.integers(-64, 64).map(lambda p: p / 256)
_SMALL = st.one_of(st.floats(-0.1, 0.1, allow_subnormal=True), st.sampled_from([0.0, -0.0]))


@st.composite
def _root_set(draw, n):
    """A root set of n finite roots, shuffled, whose scale max(1, max |root|)
    is pinned by one real root, so the pair tolerance tol = 1e-11 scale is
    known: exact conjugate pairs, partners inside and just outside 10 tol,
    equidistant partners, roots at and just past tol off the axis, and
    +-0.0 parts."""
    scale = draw(st.sampled_from([1.0, 4.0, 1e3]))
    tol = 1e-11 * scale
    roots = [complex(draw(st.sampled_from([scale, -scale])), draw(st.sampled_from([0.0, -0.0])))]
    while len(roots) < n:
        kind = draw(st.sampled_from(["axis", "pair", "tie", "single"]))
        re = draw(st.one_of(_DYADIC, _SMALL))
        im = draw(st.one_of(_DYADIC.filter(lambda x: x > 0), st.floats(1e-9, 0.25)))
        if kind == "axis":
            off = draw(st.sampled_from([0.0, -0.0, tol, -tol, np.nextafter(tol, 1.0),
                                        -np.nextafter(tol, 1.0), 0.5 * tol]))
            roots.append(complex(re, off))
        elif kind == "pair":
            gap = draw(st.sampled_from([0.0, 1.0, 9.0, 10.0, 10.5, 40.0])) * tol
            angle = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])) * math.pi
            roots += [complex(re, im),
                      complex(re + gap * math.cos(angle), -im + gap * math.sin(angle))]
        elif kind == "tie":
            step = draw(st.sampled_from([2.0 ** -34, 2.0 ** -30, 1j * 2.0 ** -34])) * scale
            re, im = draw(_DYADIC), draw(_DYADIC.filter(lambda x: x > 0))
            roots += [complex(re, im), complex(re, -im) + step, complex(re, -im) - step]
        else:
            roots.append(complex(re, draw(st.sampled_from([im, -im]))))
    return draw(st.permutations(roots[:n]))


# Parts at and just below 2^1023, where doubling them overflows or does not,
# and the parts of a root off the axis beside such a real part: a root past
# tol = 1e-11 |root| of the axis, with its modulus still finite.
_HUGE = st.sampled_from([2.0 ** 1023, -2.0 ** 1023, 1.5 * 2.0 ** 1023, -1.75 * 2.0 ** 1023,
                         np.nextafter(2.0 ** 1023, 0.0), -np.nextafter(2.0 ** 1023, 0.0)])
_BESIDE_HUGE = st.sampled_from([2.0 ** 1000, 3.0 * 2.0 ** 990, 1e300])


@st.composite
def _conjugate_set(draw, n):
    """A root set of n finite roots, shuffled, closed under conjugation root
    for root, as a real row's eigenvalues from LAPACK are: axis roots (+-0.0
    imaginary parts), conjugate pairs whose real parts may be 0.0 and -0.0,
    pairs drawn twice, and real parts at and around 2^1023, of one sign in
    a set: the gap between two of opposite signs can be finite with a
    modulus past float64's range, where the oracle's `abs` raises."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    roots = []
    while len(roots) < n:
        kind = draw(st.sampled_from(["axis", "pair", "zero", "huge"]))
        if kind == "axis" or len(roots) + 2 > n:
            roots.append(complex(draw(st.one_of(_DYADIC, _SMALL, _HUGE)),
                                 draw(st.sampled_from([0.0, -0.0]))))
            continue
        if kind == "pair":
            re, im = draw(st.one_of(_DYADIC, _SMALL)), draw(st.floats(1e-9, 4.0))
            pair = [complex(re, im), complex(re, -im)]
        elif kind == "zero":
            im = draw(_DYADIC.filter(lambda x: x > 0))
            pair = [complex(draw(st.sampled_from([0.0, -0.0])), im),
                    complex(draw(st.sampled_from([0.0, -0.0])), -im)]
        else:
            re, im = sign * abs(draw(_HUGE)), draw(_BESIDE_HUGE)
            pair = [complex(re, im), complex(re, -im)]
        roots += pair * (2 if len(roots) + 4 <= n and draw(st.booleans()) else 1)
    return draw(st.permutations(roots))


def _stacks(n):
    """Stacks of root sets of n roots: sets of `_root_set`, sets closed
    under conjugation (`_conjugate_set`), and the two mixed."""
    return st.one_of(st.lists(_root_set(n), min_size=1, max_size=4),
                     st.lists(_conjugate_set(n), min_size=1, max_size=4),
                     st.lists(st.one_of(_root_set(n), _conjugate_set(n)), min_size=2, max_size=5))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 9).flatmap(_stacks))
@example([[complex(-0.0, 0.5), complex(-0.0, -0.5), complex(1.0, -0.0)]])
@example([[complex(-0.0, 0.5), complex(0.0, -0.5), complex(1.0, 2.0), complex(1.0, -2.0),
           complex(1.0, 2.0), complex(1.0, -2.0)]])
@example([[complex(2.0 ** 1023, 1e300), complex(2.0 ** 1023, -1e300), 1.0],
          [complex(np.nextafter(2.0 ** 1023, 0.0), 1e300),
           complex(np.nextafter(2.0 ** 1023, 0.0), -1e300), 1.0]])
def test_stacked_canonicalization_matches_scalar_loop(rows):
    """The stacked canonicalization gives each row of a finite (L, N) stack
    bit for bit what the scalar double loop gives it alone, and so does
    `canonicalize_roots`, the same pairing on one set; the stack itself is
    not changed.  A row closed under conjugation, with no doubled part
    overflowing, skips the pairing and still reads what the pairing makes
    of it.  The flags of close pairs read off the canonical order are those
    of the double loop over every pair."""
    stack = np.array(rows, dtype=complex)
    before = stack.tobytes()
    # a mean of two parts near 2^1023 overflows, as Python's does silently;
    # a stack with no part that large raises on any overflow
    huge = max(np.abs(stack.real).max(), np.abs(stack.imag).max()) >= 2.0 ** 1022
    with np.errstate(over="ignore", invalid="ignore") if huge else contextlib.nullcontext():
        got = bethe._canonical(stack)
        want = np.array([scalar_canonicalize_roots(row) for row in rows], dtype=complex)
        assert got.shape == stack.shape and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
        assert stack.tobytes() == before
        for row, expected in zip(rows, want):
            assert np.array(canonicalize_roots(row)).tobytes() == expected.tobytes()
        for rel_tol in (0.0, 1e-10, 1e-6, 1.0):
            assert bethe._close_sorted(got, rel_tol) == [has_close_pair(row, rel_tol)
                                                         for row in got]


@pytest.mark.parametrize("row", [
    [complex(0.5, 1.5 * 2.0 ** 1023), complex(0.5, -1.5 * 2.0 ** 1023), 3.0],
    [complex(2.0 ** 1023, 1e300), complex(2.0 ** 1023, -1e300)],
    [complex(-1.75 * 2.0 ** 1023, 2.0 ** 1000), complex(-1.75 * 2.0 ** 1023, -2.0 ** 1000), 1.0],
], ids=["imag", "real", "negative-real"])
def test_pair_whose_double_overflows_takes_the_loop(row):
    """An exact conjugate pair whose doubled real or imaginary part
    overflows is paired by `canonicalize_roots`, whose mean is then not
    the pair's own parts: inf and NaN, as in Python's complex arithmetic,
    where the shortcut would keep the finite parts.  Below 2^1023 the
    shortcut and the pairing agree
    (`test_stacked_canonicalization_matches_scalar_loop`)."""
    stack = np.array([row, row[::-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = bethe._canonical(stack)
        want = np.array([canonicalize_roots(r) for r in stack])
        oracle = np.array(scalar_canonicalize_roots(row))
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).sum() == 4
    # the oracle's sort leaves its NaN pair in construction order; numpy's
    # lexsort orders it by imaginary part: the same values either way
    assert sorted(map(repr, got[0].tolist())) == sorted(map(repr, oracle.tolist()))


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


def test_roots_are_read_only_complex_arrays_on_every_path():
    """The solve path, the exact g = 0 branch and the direct search each keep a
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


def test_ladder_and_cross_validate_judge_energy_on_one_scale(monkeypatch):
    """`converged` and `cross_validate` judge a level's energy within 1e-8
    of one scale, the spectral scale max(1, max |E|).  Every energy here is
    off by 1e-8 of the square root of that scale (98.6): more than 1e-8 of
    max(1, |E|) for the levels with |E| < 9.9, within 1e-8 of the spectral
    scale for every level.  So every level converges, and each level's
    `converged` is its `ok`."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 12))
    scale = max(1.0, float(np.max(np.abs(diagonalize(build_monomial_matrix(model, sec)).energies))))
    offset = 1e-8 * math.sqrt(scale)
    closed_form = bethe._closed_form_energies
    monkeypatch.setattr(bethe, "_closed_form_energies",
                        lambda op, stack: closed_form(op, stack) + offset)
    report = cross_validate(model, sec)
    between = [sol.level for sol in report.solutions
               if offset > 1e-8 * max(1.0, abs(sol.oracle_energy))]
    assert between == [1, 2, 3]
    assert [sol.converged for sol in report.solutions] == [rec.ok for rec in report.levels]
    assert report.passed


def test_decimal_rung_rescues_levels_of_preset_c_at_n60():
    """Preset C at N=60: levels 21 and 35 converge on the one scaled solve,
    their residuals within the solver's 1e-12 and their energies within
    1e-8, and every level of the sector passes `cross_validate`.  Their
    float64 residuals agree with the same roots' at 60 digits within a
    factor of 2: psi's coefficients are expanded in order of |a|
    (`_monic_from_roots`); in sorted order they read about 3e-12."""
    model, sec = _route_sector("C-60")
    report = cross_validate(model, sec)
    assert report.passed
    op = expand_diffop(model, sec)
    for level in (21, 35):
        sol = report.solutions[level]
        assert sol.source == "extracted" and sol.converged
        assert sol.residual_robust <= 1e-12
        exact = robust_residual_mp(op, sol.roots)
        assert exact / 2 <= sol.residual_robust <= 2 * exact


def _unscaled_residuals(model, sec):
    """Per level, the scaled robust residual of `np.roots` of its twisted
    row as it is, not scaled to z = sigma w."""
    op = expand_diffop(model, sec)
    rows = diagonalize(build_monomial_matrix(model, sec)).vectors.T
    stack = np.array([np.roots(row[::-1]).astype(complex) for row in rows])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return bethe._judged(op, bethe._float_polys(op), stack, 1e-6)[1]


def test_candidates_pass_as_is_on_preset_a():
    """Every level of preset A at N=12, 20 and 30 passes on a candidate as-is."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    for n_top in (12, 20, 30):
        sec = sector_from_occupations(model, (0, 3, n_top))
        assert sec.n_top == n_top
        report = cross_validate(model, sec)
        assert report.passed, (n_top, report.failing_levels())


def test_ladder_builds_no_candidate_after_a_pass(monkeypatch):
    """Preset B at N=45: one `_roots_of_rows` call takes all 46 rows, no
    other candidate is built, and every level converges on it."""
    model, sec = _route_sector("B-45")
    stacks = []
    roots_of_rows = bethe._roots_of_rows

    def recorded(rows):
        stacks.append((len(rows), rows.dtype))
        return roots_of_rows(rows)

    monkeypatch.setattr(bethe, "_roots_of_rows", recorded)
    sols = solve_bethe(model, sec)
    assert stacks == [(46, np.dtype(float))]
    assert all(sol.source == "extracted" and sol.converged and sol.residual_robust <= 1e-12
               for sol in sols)


# Draw 139 (0-based) of `random_sector(default_rng(5), 1, 15)` in the
# benchmark's workloads, N = 15: levels 5, 6, 7, 9 and 10 need the scaled
# solve of their twisted rows.
COMPLEX_RUNG_SECTOR = dict(
    r=1, s=3, k=(1, 1, 2, 2), g=0.9582751874761397,
    w=(-0.7395192032602209, -0.8039813752042408, 0.5207767177648714, -0.2649988584483831),
    wq={(0, 0): 0.80873510563095, (0, 1): 0.3065198824600843, (0, 2): -0.15138057669786642,
        (0, 3): -0.7379996823329067, (1, 1): -0.593451032589646, (1, 2): 0.8395796914658089,
        (1, 3): 0.18277340089552285, (2, 2): -0.2836032554308445, (2, 3): 0.3209091496850689,
        (3, 3): 0.7671012623678655},
    occ=(0, 15, 30, 30), n_top=15)


def test_complex_rung_rescues_levels_the_real_rows_fail():
    """Levels 5, 7, 9 and 10 of `COMPLEX_RUNG_SECTOR` fail the 1e-12 gate on
    the roots of their real twisted rows as they are, and so does level 6.
    Scaled to z = sigma w, the same rows' roots converge, on the one solve,
    down to 6.0e-15."""
    case = COMPLEX_RUNG_SECTOR
    model = make_model(case["r"], case["s"], case["k"], w=list(case["w"]), wq=case["wq"],
                       g=case["g"])
    sec = sector_from_occupations(model, case["occ"])
    assert sec.n_top == case["n_top"]
    unscaled = _unscaled_residuals(model, sec)
    assert [level for level, resid in enumerate(unscaled) if resid > 1e-12] == [5, 6, 7, 9, 10]
    sols = solve_bethe(model, sec)
    assert all(sol.converged and sol.source == "extracted" and sol.residual_robust <= 1e-12
               for sol in sols)
    assert max(sols[level].residual_robust for level in (5, 6, 7, 9, 10)) <= 1e-14


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


def test_monic_from_roots_multiplies_in_order_of_modulus():
    """Each row's factors are multiplied in order of increasing |a|, so
    psi's coefficients are the same bytes for any order of roots with
    distinct moduli, row by row in a stack; the expansion still gives the
    monic polynomial with those roots."""
    rng = np.random.default_rng(7)
    stack = 10.0 * rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    shuffled = np.array([row[rng.permutation(12)] for row in stack])
    by_modulus = np.take_along_axis(stack, np.argsort(np.abs(stack), axis=1), axis=1)
    want = bethe._monic_from_roots(stack)
    assert np.array_equal(bethe._monic_from_roots(shuffled), want)
    assert np.array_equal(bethe._monic_from_roots(by_modulus), want)
    assert np.array_equal(bethe._monic_from_roots(shuffled[1]), want[1])
    for row, coeffs in zip(stack, want):
        assert np.allclose(coeffs, npoly.polyfromroots(row), rtol=1e-12, atol=0)


_ZERO = np.zeros(0, dtype=complex)


def _p_planes(p_list):
    """P_i given as coefficient arrays (empty for a zero P_i), as the
    planes `bethe._float_polys` makes of an operator's."""
    op = diffop.DiffOpForm(order=len(p_list) - 1, p=tuple(map(Polynomial, p_list)),
                           hop_values=(), n_top=0)
    return bethe._float_polys(op)


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
        at = bethe._terms_at_roots(_p_planes(p_list), np.array([roots], dtype=complex))
        got_robust, got_bae = bethe._scaled_robust(at), bethe._scaled_bae(at)
    terms, bounds, _ = at
    assert np.all(np.isfinite(terms.sum(axis=0))) and not np.all(np.isfinite(bounds.sum(axis=0)))
    assert got_robust[0] == math.inf
    assert got_bae[0] == bae


@st.composite
def _kernel_cases(draw):
    """P_0 .. P_M (M in 1..9), each zero (empty) or 1..4 complex
    coefficients with a nonzero top one, as `Polynomial` trims them, and an
    (L, N) stack of roots, N in 1..12: any complex numbers, infinities,
    NaNs and magnitudes that overflow included."""
    coeff = st.complex_numbers()
    poly = st.one_of(st.just([]), st.lists(coeff, min_size=1, max_size=4).filter(lambda c: c[-1]))
    p_list = draw(st.lists(poly, min_size=2, max_size=10))
    rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    roots = draw(st.lists(st.one_of(coeff, st.complex_numbers(min_magnitude=1e100)),
                          min_size=rows * n, max_size=rows * n))
    return ([np.array(p, dtype=complex) for p in p_list],
            np.array(roots, dtype=complex).reshape(rows, n))


@settings(max_examples=300, deadline=None)
@given(case=_kernel_cases())
@example(case=([_ZERO] * 3, np.array([[0.5 + 1j, -2.0, 3j]])))
def test_residual_forms_read_the_same_through_the_per_order_kernel(case):
    """`_scaled_robust`, `_scaled_bae` and `_pole_residues` read the one
    Horner sweep of `_terms_at_roots` as they read the per-order loop it
    replaced (`oracles.terms_at_roots`), overflow and an operator whose
    every P_i is zero included: the terms, bounds and psi' agree bit for
    bit, a NaN's sign and payload aside."""
    p_list, roots = case
    with np.errstate(all="ignore"):
        got = bethe._terms_at_roots(_p_planes(p_list), roots)
        want = terms_at_roots(p_list, _monic_from_roots(roots), roots)
        for got_part, want_part in zip(got, want):
            _same_bits(got_part, want_part)
        for form in (bethe._scaled_robust, bethe._scaled_bae, bethe._pole_residues):
            _same_bits(form(got), form(want))


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
    """Perturbed roots: every level comes back unconverged with the roots
    of its twisted row, and the report fails it."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 6))
    roots_of_rows = bethe._roots_of_rows

    def perturbed(rows):
        roots, has = roots_of_rows(rows)
        return roots * (1 + 1e-4), has

    monkeypatch.setattr(bethe, "_roots_of_rows", perturbed)
    sols = solve_bethe(model, sec)
    assert len(sols) == sec.dim
    for sol in sols:
        assert sol.source == "extracted" and not sol.converged and not sol.reduced
        assert len(sol.roots) == sec.n_top
    report = cross_validate(model, sec)
    assert not report.passed
    assert len(report.failing_levels()) == sec.dim


def test_level_no_rung_gives_a_row_is_reported_without_roots(monkeypatch):
    """NaN twisted rows: every row is dropped, so each level comes back
    unconverged with no roots and a NaN energy, and the report fails every
    level instead of raising."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 6))

    def nan_rows(block, energies):
        return np.full((len(energies), block.dim), math.nan)

    monkeypatch.setattr(hamiltonian, "_twisted_rows", nan_rows)
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
    """`diagonalize` takes the monomial eigenvectors from the twisted
    factorization: every column is finite, peaks at magnitude 1 and keeps
    its top coefficient (4, 12 and 12 columns were all zero, and then had
    to be rescaled past an overflowing norm), no warning is raised, and
    `cross_validate` reports every level at full degree; it once raised
    IndexError."""
    r, s, k, w, wq, g, anchor = ZERO_EIGENVECTOR_SECTORS[name]
    model = make_model(r, s, k, w=list(w), wq=wq, g=g)
    sec = sector_from_occupations(model, anchor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = diagonalize(build_monomial_matrix(model, sec))
        report = cross_validate(model, sec)
    assert np.all(np.isfinite(spec.vectors))
    assert np.array_equal(np.abs(spec.vectors).max(axis=0), np.ones(sec.dim))
    assert np.all(spec.vectors[-1] != 0)
    assert len(report.levels) == sec.dim
    assert all(len(sol.roots) == sec.n_top and not sol.reduced for sol in report.solutions)


def test_no_level_is_reduced_at_weak_coupling():
    """Preset A at N=40 and g = 1e-2: no eigenvector `diagonalize` gives
    has lost its top coefficient (13 of the eigensolver's, mapped back to
    monomial coordinates, had), and every level keeps a full-degree
    attempt, never a trimmed root set with the oracle energy in place of
    its own (13 levels once did)."""
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=1e-2)
    sec = sector_from_occupations(model, (0, 3, 40))
    spec = diagonalize(build_monomial_matrix(model, sec))
    assert np.count_nonzero(spec.vectors[-1] == 0.0) == 0
    sols = solve_bethe(model, sec)
    assert all(len(sol.roots) == 40 and not sol.reduced for sol in sols)


@pytest.mark.parametrize("name", ["N25", "g0"])
def test_solve_bethe_factorizes_the_block_once(monkeypatch, name):
    """One twisted factorization per `solve_bethe`, inside `diagonalize`,
    on a weakly coupled sector (preset A at N=60 is counted in the
    stacked-eigensolve test); none on a diagonal block, whose eigenvectors
    are unit vectors.  The solver module keeps no eigenvector routine of
    its own."""
    if name == "g0":
        model = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
        sec = sector_from_occupations(model, (0, 0, 4))
    else:
        r, s, k, w, wq, g, anchor = ZERO_EIGENVECTOR_SECTORS[name]
        model = make_model(r, s, k, w=list(w), wq=wq, g=g)
        sec = sector_from_occupations(model, anchor)
    calls = []
    twisted_rows = hamiltonian._twisted_rows

    def counted(block, energies):
        calls.append(block.dim)
        return twisted_rows(block, energies)

    monkeypatch.setattr(hamiltonian, "_twisted_rows", counted)
    assert len(solve_bethe(model, sec)) == sec.dim
    assert calls == ([] if name == "g0" else [sec.dim])
    assert not hasattr(bethe, "_twisted_rows")


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
    """One hop table per sector, over the whole call: `cross_validate`'s
    Fock block, monomial block and operator all read one `_hop_factors`
    table, and nothing calls `hop_values` afresh.  One monomial spectrum,
    one float form of the operator, no direct search, and one
    `BetheSolution` per level.  `solve_bethe` alone on a sector of its own
    is the same pass without the Fock block.  A level whose row has no
    roots still takes its own place in level order: no roots, a NaN
    energy, an infinite residual, unconverged; every other level is
    unchanged."""
    counts = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("build_sector_matrix", "build_monomial_matrix", "diagonalize", "expand_diffop",
                 "_float_polys", "solve_bethe", "direct_search", "BetheSolution"):
        monkeypatch.setattr(bethe, name, counted(name, getattr(bethe, name)))
    for name in ("_hop_factors", "hop_values"):
        wrapper = counted(name, getattr(diffop, name))
        for module in (diffop, hamiltonian, bethe):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    model = preset("A", w=[0.4, -0.3, 0.2], wq={(0, 1): 0.5}, g=0.8)
    sec = sector_from_occupations(model, (0, 3, 12))
    report = cross_validate(model, sec)
    assert report.passed and len(report.solutions) == sec.dim
    solve_pass = {"_hop_factors": 1, "build_monomial_matrix": 1, "diagonalize": 1,
                  "expand_diffop": 1, "_float_polys": 1, "BetheSolution": sec.dim}
    assert dict(counts) == {**solve_pass, "build_sector_matrix": 1, "solve_bethe": 1,
                            "diagonalize": 2}
    counts.clear()
    solutions = bethe.solve_bethe(model, copy.copy(sec))
    assert all(_same_solution(sol, want) for sol, want in zip(solutions, report.solutions))
    assert dict(counts) == {**solve_pass, "solve_bethe": 1}

    rootless = {1, sec.dim - 2}
    roots_of_rows = bethe._roots_of_rows

    def without(rows):
        roots, has = roots_of_rows(rows)
        has[sorted(rootless)] = False
        return roots, has

    monkeypatch.setattr(bethe, "_roots_of_rows", without)
    counts.clear()
    masked = cross_validate(model, sec)
    assert counts["BetheSolution"] == sec.dim
    assert [sol.level for sol in masked.solutions] == list(range(sec.dim))
    assert [rec.level for rec in masked.failing_levels()] == sorted(rootless)
    for sol, want in zip(masked.solutions, report.solutions):
        if sol.level in rootless:
            assert len(sol.roots) == 0 and math.isnan(sol.energy) and not sol.converged
            assert sol.residual_robust == math.inf and sol.oracle_energy == want.oracle_energy
        else:
            assert _same_solution(sol, want)


def test_direct_roots_build_the_operator_once_per_consumer(monkeypatch, capsys):
    """`roots --dump-diffop --direct`: the dump, the solve path and the
    direct search each build the operator once, and the solve path and the
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
    "A-40-g0.1": ("A", GRID_W, (0, 3, 40), 0.1),
    "A-40-g0.01": ("A", GRID_W, (0, 3, 40), 1e-2),
    "A-60-g0.01": ("A", GRID_W, (0, 3, 60), 1e-2),
    "B-60-g0.01": ("B", GRID_W, (0, 3, 120), 1e-2),
    "B-40-g0.1": ("B", GRID_W, (0, 3, 80), 0.1),
    "C-40-g0.1": ("C", GRID_W + (0.1,), (0, 3, 40, 42), 0.1),
    "B-40-g0.01": ("B", GRID_W, (0, 3, 80), 1e-2),
    "C-40-g0.01": ("C", GRID_W + (0.1,), (0, 3, 40, 42), 1e-2),
    "A-60-g0.1": ("A", GRID_W, (0, 3, 60), 0.1),
    "B-60-g0.1": ("B", GRID_W, (0, 3, 120), 0.1),
    "C-60-g0.1": ("C", GRID_W + (0.1,), (0, 3, 60, 62), 0.1),
    "C-60-g0.01": ("C", GRID_W + (0.1,), (0, 3, 60, 62), 1e-2),
    "A-80": ("A", GRID_W, (0, 3, 80), 0.8),
    "B-80": ("B", GRID_W, (0, 3, 160), 0.8),
    "C-80": ("C", GRID_W + (0.1,), (0, 3, 80, 82), 0.8),
    "A-100": ("A", GRID_W, (0, 3, 100), 0.8),
    "A-100-g0.1": ("A", GRID_W, (0, 3, 100), 0.1),
    "B-100-g0.1": ("B", GRID_W, (0, 3, 200), 0.1),
    "C-100-g0.1": ("C", GRID_W + (0.1,), (0, 3, 100, 102), 0.1),
    "A-100-g0.01": ("A", GRID_W, (0, 3, 100), 1e-2),
    "B-100-g0.01": ("B", GRID_W, (0, 3, 200), 1e-2),
    "C-100-g0.01": ("C", GRID_W + (0.1,), (0, 3, 100, 102), 1e-2),
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


def test_canonical_row_with_infinite_modulus_is_canonicalized_alone():
    """A finite row whose modulus overflows has an infinite tolerance, so
    every root is flattened onto the axis and none pairs.  In a stack with
    a row that takes the pairing it stays what it is alone: a stacked
    pairing loop over padded rows once let its infinite reach pair the
    padding, writing a mean of other roots into it."""
    huge = [complex(1.3e308, 1.3e308), 1.0, 2.0]
    loop = [complex(1.0, 1.0), complex(1.0, -1.0), complex(3.0, 0.5)]
    alone = [[1.0, 2.0, 1.3e308]]
    with np.errstate(over="ignore"):
        assert bethe._canonical(np.array([huge])).tobytes() == np.array(alone, complex).tobytes()
        got = bethe._canonical(np.array([huge, loop, huge[::-1]]))
        assert got[0::2].tobytes() == np.array(alone * 2, complex).tobytes()
        assert got[1].tobytes() == np.array(scalar_canonicalize_roots(loop)).tobytes()


# The bits of NaN, of NaN with its sign bit set, of inf and of 1.0.
_NAN, _NEG_NAN = 0x7ff8000000000000, 0xfff8000000000000
_INF, _ONE = 0x7ff0000000000000, 0x3ff0000000000000


@pytest.mark.parametrize("roots, bits", [
    ([1 + 2j, 1 - 2j, complex(math.nan, 0.0)], [_ONE, 0, _ONE, 0, _NAN, 0]),
    ([1 + 2j, 1 - 2j, complex(0.0, math.nan)], [0, 0, _ONE, 0, _ONE, 0]),
    ([complex(math.nan, math.nan), 1 + 2j, 1 - 2j], [_ONE, 0, _ONE, 0, _NAN, 0]),
    ([complex(math.inf, 1.0), 1 + 2j, 1 - 2j], [_ONE, 0, _ONE, 0, _INF, 0]),
    ([complex(1e308, 1e308), complex(1e308, -1e308), 3.0],
     [0x4008000000000000, 0, _NEG_NAN, _NEG_NAN, _NEG_NAN, _NAN]),
    ([complex(math.nan, math.inf), complex(-math.nan, 0.0), 2.0],
     [0x4000000000000000, 0, _NEG_NAN, 0, _NAN, 0]),
], ids=["nan", "nan-imag", "nan-both", "inf", "overflowed-mean", "nan-signs"])
def test_canonical_bits_of_non_finite_sets(roots, bits):
    """The canonical form of a set with a non-finite part or a finite pair
    whose mean overflows, as the bits of its parts, in every order of the
    set, alone and as a row of a stack.  A NaN or infinite modulus makes the
    pair tolerance NaN or inf, so every root is flattened onto the axis;
    the pair (1e308, +-1e308) is within it, and its mean is NaN.  Of two
    NaN real parts, the one whose imaginary part is finite comes first."""
    loop, closed = [1 + 1j, 1 - 1j, 3 + 0.5j], [1.0, 1 + 1j, 1 - 1j]
    with np.errstate(over="ignore", invalid="ignore"):
        for row in itertools.permutations(roots):
            assert np.array(canonicalize_roots(row)).view(np.uint64).tolist() == bits
            for stack in ([row], [loop, row, closed]):
                got = bethe._canonical(np.array(stack))[len(stack) // 2]
                assert got.view(np.uint64).tolist() == bits


@st.composite
def _mixed_row(draw, n):
    """A root set of n roots of one of four kinds: a `_root_set`, which may
    take the pairing; a set closed under conjugation (`_conjugate_set`); a
    set with no root above the axis; or a set with a root whose modulus
    overflows, so its pair tolerance is infinite."""
    kind = draw(st.sampled_from(["loop", "closed", "no-upper", "overflow"]))
    if kind == "loop":
        return draw(_root_set(n))
    if kind == "closed":
        return draw(_conjugate_set(n))
    if kind == "no-upper":
        return [complex(draw(_DYADIC), -abs(draw(st.one_of(_DYADIC, _SMALL))))
                for _ in range(n)]
    huge = st.sampled_from([1.3e308, -1.3e308, 1.5 * 2.0 ** 1023, -2.0 ** 1023])
    return draw(st.permutations([complex(draw(huge), draw(huge))] + draw(_root_set(n - 1))))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(_mixed_row(n), min_size=2, max_size=5)))
def test_each_row_of_a_stack_is_canonicalized_alone(rows):
    """Each row of a stacked canonicalization is bit for bit that row
    canonicalized alone, as a stack of one and by `canonicalize_roots`,
    whatever the other rows are: closed under conjugation or not, with no
    root above the axis, or with a modulus past float64's range."""
    stack = np.array(rows, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        got = bethe._canonical(stack)
        for row, canonical in zip(stack, got):
            assert canonical.tobytes() == bethe._canonical(row[None])[0].tobytes()
            assert canonical.tobytes() == np.array(canonicalize_roots(row)).tobytes()


def test_solve_path_root_sets_skip_the_pairing_loop(monkeypatch):
    """The root sets of real twisted rows come from LAPACK's real
    eigensolver in exact conjugate pairs, so on the solve path no row of
    the N = 40 grid, of A/C at N = 100 or of 40 general sectors with N up
    to 24 is paired by `canonicalize_roots`."""
    rows = []
    canonicalize = bethe.canonicalize_roots
    monkeypatch.setattr(bethe, "canonicalize_roots",
                        lambda z: rows.append(len(z)) or canonicalize(z))
    sectors = [_route_sector(name) for name in N40_GRID + ("A-100", "C-100-g0.01")]
    reports = [cross_validate(model, sec) for model, sec in
               sectors + list(_general_sectors(5, 40, n_range=(1, 24)))]
    assert rows == []
    assert all(report.passed for report in reports[:3])


def _route_cases(name):
    """The sectors of a `test_high_precision_route_matches_mpmath_reference`
    case: one of `ROUTE_SECTORS`, the exact-fraction twin of preset A at
    N=30, or general-model sectors."""
    if name.endswith("exact"):
        model = preset("A", w=[Fraction(2, 5), Fraction(-3, 10), Fraction(1, 5)],
                       wq={(0, 1): Fraction(1, 2)}, g=Fraction(4, 5))
        return [(model, sector_from_occupations(model, (0, 3, 30)))]
    if name == "general":
        return list(_general_sectors(13, 3))
    if name == "general-log-g":
        return list(_general_sectors(17, 12, n_range=(8, 30), log_g=True))
    return [_route_sector(name)]


@pytest.mark.parametrize("name", [*N40_GRID, "A-30", "A-60", "B-100", "C-100", "A-30-exact",
                                  "general", "A-40-g0.1", "A-40-g0.01", "A-60-g0.01",
                                  "B-60-g0.01", "general-log-g"])
def test_high_precision_route_matches_mpmath_reference(name):
    """Every level's returned roots sum to -c_(N-1) / c_N of the mpmath
    route's row to 1e-10 of itself, wherever the level passes
    `cross_validate`, and every level passes it but on presets B and C at
    N=100.  At max(50, 30 + 4N) digits that route is the reference on
    every level of the N=40 grid, of preset A at N=30 and N=60, of one
    sector whose couplings (and so hop values) are exact fractions, of
    three general-model sectors with N in 16..24, and on every 4th level of
    presets B and C at N=100.  At weak coupling its forward recurrence
    needs more digits, and the reference is the row at digits that no
    longer change it (`settled_coefficients`): on preset A at N=40, g = 0.1
    and 1e-2, on presets A and B at N=60, g = 1e-2, and on twelve
    general-model sectors with N in 8..30 and g log-uniform in [1e-3, 2].
    The worst sum gap measured is 3.7e-13."""
    if "g0" in name or name.endswith("log-g"):
        def reference(op, energy):
            return settled_coefficients(op, energy)[1]
    else:
        reference = high_precision_coefficients
    stride = 4 if name.endswith("100") else 1
    for model, sec in _route_cases(name):
        op = expand_diffop(model, sec)
        if name.endswith("exact"):
            assert all(isinstance(c, Fraction) for c in op.hop_values[2])
        report = cross_validate(model, sec)
        assert report.passed or name in ("B-100", "C-100")
        for rec, sol in list(zip(report.levels, report.solutions))[::stride]:
            if rec.ok:
                row = reference(op, sol.oracle_energy)
                assert sum(sol.roots.tolist()).real == pytest.approx(-row[-2] / row[-1],
                                                                     rel=1e-10), rec


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
    """Every level of the N=40 grid passes on the roots of its real twisted
    row: one `_roots_of_rows` call gets the 41 float64 rows, and no complex
    row."""
    stacks = []
    roots_of_rows = bethe._roots_of_rows

    def recorded(rows):
        stacks.append((len(rows), rows.dtype))
        return roots_of_rows(rows)

    monkeypatch.setattr(bethe, "_roots_of_rows", recorded)
    report = cross_validate(*_route_sector(name))
    assert report.passed
    assert all(sol.source == "extracted" for sol in report.solutions)
    assert stacks == [(41, np.dtype(float))]


@pytest.mark.parametrize("name", N40_GRID)
def test_n40_grid_solves_one_companion_matrix_per_level(monkeypatch, name):
    """One grid sector gives `_roots_of_rows` its 41 rows, all in one call,
    from one twisted factorization."""
    stacks, factorized = [], []
    roots_of_rows, twisted_rows = bethe._roots_of_rows, hamiltonian._twisted_rows

    def counted(rows):
        stacks.append(len(rows))
        return roots_of_rows(rows)

    def counted_rows(block, energies):
        factorized.append(len(energies))
        return twisted_rows(block, energies)

    monkeypatch.setattr(bethe, "_roots_of_rows", counted)
    monkeypatch.setattr(hamiltonian, "_twisted_rows", counted_rows)
    solve_bethe(*_route_sector(name))
    assert stacks == [41] and factorized == [41]


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_weakly_coupled_n40_levels_keep_their_energies(name):
    """Presets A/B/C at N=40, g = 1e-2: the twisted rows keep the tiny
    components that the eigenvector flushes, so no level's energy is off by
    more than 1e-8 (the worst was 1.7, on A), and on the scaled rows no
    level fails (34, 25 and 29 once did)."""
    case, w, occ, _ = ROUTE_SECTORS[f"{name}-40"]
    model = preset(case, w=list(w), wq={(0, 1): 0.5}, g=1e-2)
    report = cross_validate(model, sector_from_occupations(model, occ))
    assert report.max_energy_error <= 1e-8
    assert report.failing_levels() == []


# The g-axis cells: presets A, B and C at N=40 and 60, g = 0.1 and 1e-2, 612
# levels in all.
G_AXIS_CELLS = [f"{case}-{n_top}-g{g}" for case in "ABC" for n_top in (40, 60)
                for g in ("0.1", "0.01")]


def test_every_level_of_the_g_axis_cells_passes():
    """Every one of the 612 levels of the twelve g-axis cells passes
    `cross_validate`: its returned roots meet the 1e-10 residual gate and
    its energy agrees to 1e-8."""
    failing, levels = {}, 0
    for name in G_AXIS_CELLS:
        report = cross_validate(*_route_sector(name))
        failing[name] = [rec.level for rec in report.failing_levels()]
        levels += len(report.levels)
    assert levels == 612
    assert all(not failed for failed in failing.values()), failing


def test_converged_is_the_cross_validate_verdict():
    """A level's `converged` flag is its `cross_validate` verdict, on the
    twelve g-axis cells, where every level passes, and on preset C at
    N=100, g = 0.8, where 32 levels fail: one 1e-10 residual certificate
    and one 1e-8 energy rule decide both."""
    for name in [*G_AXIS_CELLS, "C-100"]:
        report = cross_validate(*_route_sector(name))
        assert [s.converged for s in report.solutions] == [r.ok for r in report.levels], name


# Failing levels of each large cell that does not pass yet: presets B and C
# at N=100 and the order-4 model at N=60, g = 0.8, and the weakly coupled
# N = 100 cells.  Every one of them has failing levels whose float64
# residual overflows.  B100, C100 and O4 60 fail on nothing else: their
# failing levels' roots pass at 60 digits.  On A100 at g = 1e-2, 28 fail at
# 60 digits too, 10 of them with no roots or a wrong energy (items 1 and 3).
KNOWN_FAILING = {"B-100": 72, "C-100": 32, "O4-60": 46,
                 "A-100-g0.1": 98, "B-100-g0.1": 98, "C-100-g0.1": 95,
                 "A-100-g0.01": 100, "B-100-g0.01": 100, "C-100-g0.01": 100}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"float64 residual overflows (ROADMAP item 2): {KNOWN_FAILING[name]} failing"))
    if name in KNOWN_FAILING else name
    for name in ("A-60", "B-60", "C-60", "A-80", "B-80", "C-80", "A-100", *KNOWN_FAILING)])
def test_every_level_of_the_large_cells_passes(name):
    """Every level of the cliff (presets A, B and C at N = 60, 80 and 100,
    and the order-4 model r=2, s=1, k=(2, 2, 3) at anchor (0, 1, 180), all
    at g = 0.8) and of the weakly coupled N = 100 cells passes
    `cross_validate`: its returned roots meet the 1e-10 residual
    certificate and its energy agrees to 1e-8.  A cell in `KNOWN_FAILING`
    is a strict xfail, whose marker comes off once it passes; one that
    fails more levels than it lists fails outright."""
    if name == "O4-60":
        model = make_model(2, 1, (2, 2, 3), w=list(GRID_W), wq={(0, 1): 0.5}, g=0.8)
        sec = sector_from_occupations(model, (0, 1, 180))
    else:
        model, sec = _route_sector(name)
    failing = [rec.level for rec in cross_validate(model, sec).failing_levels()]
    if len(failing) > KNOWN_FAILING.get(name, 0):
        pytest.fail(f"{len(failing)} failing levels: {failing}")
    assert not failing, failing


@functools.cache
def _bench_random_draws(seed, count, n_lo, n_hi):
    """`count` draws of the benchmark's `random_sector(default_rng(seed),
    n_lo, n_hi)`, as (model, anchor) pairs.  `bench/workloads.py` is loaded
    once, by path, and not left in `sys.modules`."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    # registered while it runs: its dataclasses look their module up
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
        rng = np.random.default_rng(seed)
        items = [workloads.random_sector(rng, n_lo, n_hi) for _ in range(count)]
    finally:
        del sys.modules[spec.name]
    return [(item.model(), item.anchor) for item in items]


@pytest.mark.parametrize("name", [*N40_GRID, "A-100", "B-100", "C-100", "O4-60", "random"])
def test_shared_hop_table_matches_the_public_builders(name):
    """`cross_validate` builds its two blocks and its operator from one
    hop table; the public builders, called on a copy of the sector, read a
    table of their own.  The two give the same bits: every Fock energy is
    `diagonalize(build_sector_matrix(...))`'s, and every solution is
    `solve_bethe`'s, on the N = 40 grid, presets A, B and C at N = 100,
    the order-4 model at N = 60 (all at g = 0.8) and 300 draws of the
    benchmark's `random_sector(default_rng(5), 1, 15)`."""
    if name == "random":
        cases = [(model, sector_from_occupations(model, anchor))
                 for model, anchor in _bench_random_draws(5, 300, 1, 15)]
    elif name == "O4-60":
        model = make_model(2, 1, (2, 2, 3), w=list(GRID_W), wq={(0, 1): 0.5}, g=0.8)
        cases = [(model, sector_from_occupations(model, (0, 1, 180)))]
    else:
        cases = [_route_sector(name)]
    for model, sec in cases:
        report = cross_validate(model, sec)
        fock = diagonalize(hamiltonian.build_sector_matrix(model, copy.copy(sec))).energies
        assert [rec.energy_fock for rec in report.levels] == fock.tolist()
        solutions = solve_bethe(model, copy.copy(sec))
        assert len(solutions) == len(report.solutions) == sec.dim
        assert all(_same_solution(a, b) for a, b in zip(report.solutions, solutions))


@pytest.mark.parametrize("name", ["A-40-g0.01", "B-60-g0.01"])
def test_weak_coupling_roots_pass_at_60_digits(name):
    """On preset A at N=40 and preset B at N=60, g = 1e-2, every 8th level's
    returned roots pass the 1e-10 gate with their residual evaluated at 60
    digits (`oracles.robust_residual_mp`), not only in float64, so these
    passes are not float64 evaluation luck."""
    model, sec = _route_sector(name)
    op = expand_diffop(model, sec)
    report = cross_validate(model, sec)
    for rec, sol in list(zip(report.levels, report.solutions))[::8]:
        assert rec.ok and robust_residual_mp(op, sol.roots) <= 1e-10, rec


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
    an entry.  At `diagonalize`'s eigenvalues, which the solve path uses, the
    eigensolver's error of up to eps * ||M|| reaches the rows as well: over
    seeds 0-4999 the largest gap of each entry to itself is then 3.5e-9."""
    model, sec = next(_general_sectors(seed, 1, n_range=(0, 20), log_g=True))
    block = build_monomial_matrix(model, sec)
    op = expand_diffop(model, sec)
    settled = [settled_coefficients(op, energy)
               for energy in diagonalize(block).energies.tolist()]
    energies = np.array([energy for energy, _ in settled])
    for row, (_, want) in zip(hamiltonian._twisted_rows(block, energies), settled):
        if np.all(np.isfinite(row)) and np.all(row != 0) and np.all(want != 0):
            scale = np.abs(want)
            side = np.minimum(scale[:-2], scale[2:])
            dip = (np.sign(want[:-2]) != np.sign(want[2:])) & (scale[1:-1] < side)
            scale[1:-1][dip] = side[dip]
            gap = np.abs(row * np.sign(row[0]) - want) / scale
            assert np.max(gap) <= 1e-10, (seed, np.max(gap))


# The sector of the sum-rule check this property replaced.
_SUM_RULE_MODEL = make_model(2, 1, (1, 1, 1), w=[0.2, -0.3, 0.5], g=1.2)
_SUM_RULE_CASE = (_SUM_RULE_MODEL, sector_from_occupations(_SUM_RULE_MODEL, (0, 0, 8)))


# derandomize: the draws are the same on every run, and hypothesis keeps no
# example database, so no failing draw is saved and replayed
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.integers(0, 2 ** 32 - 1).map(
    lambda seed: next(_general_sectors(seed, 1, n_range=(1, 20), log_g=True))))
@example(case=_SUM_RULE_CASE)
# Seed 90051 (N = 19, g = 1.40), level 9: the roots reach |a| = 3.6e7 and
# cancel.  Found from the row as it was, their sum, 335.258345477283, was
# 1.28e-10 of itself off -c_{N-1}/c_N = 335.2583454344601; the row scaled to
# z = sigma w gives roots that meet the bound.
@example(case=next(_general_sectors(90051, 1, n_range=(1, 20), log_g=True)))
def test_closed_form_energy_matches_vieta_form_of_the_eigenvector(case):
    """For every converged `extracted` level, over general sectors with
    1 <= N <= 20 and g log-uniform in [1e-3, 2], the closed-form energy
    B(N) - A(N-1) sum(alpha) of the returned roots equals the Vieta form
    B(N) + A(N-1) c_{N-1} / c_N of that level's `diagonalize` column, to
    1e-8 of the spectral scale max(1, max |E|), and the roots' sum is
    -c_{N-1} / c_N to 1e-10, the rule of the sum-rule check of the
    @example, whose levels are all converged and extracted."""
    model, sec = case
    spec = diagonalize(build_monomial_matrix(model, sec))
    hop_a, hop_b, _ = expand_diffop(model, sec).hop_values
    scale = max(1.0, float(np.max(np.abs(spec.energies))))
    for sol in solve_bethe(model, sec):
        if sol.converged and sol.source == "extracted":
            c = spec.vectors[:, sol.level]
            vieta = float(hop_b[-1]) + float(hop_a[-1]) * c[-2] / c[-1]
            assert abs(sol.energy - vieta) <= 1e-8 * scale, (sol.level, sol.energy, vieta)
            assert sum(a.real for a in sol.roots) == pytest.approx(-c[-2] / c[-1], rel=1e-10,
                                                                  abs=1e-10)


@pytest.mark.parametrize("name", ["A-30", "A-30-exact", "general"])
def test_decimal_rows_of_a_batch_match_one_energy_at_a_time(name):
    """The roots of all levels' twisted rows at once, and of the same rows
    in reverse order, are row for row the bytes each row gives alone: no
    state leaks from one row of the stack to the next, and each row's
    scale is its own.  On preset A at N=30, its exact-fraction twin and a
    general sector with N in 16..24."""
    model, sec = _route_cases(name)[0]
    rows = diagonalize(build_monomial_matrix(model, sec)).vectors.T
    batch, has = bethe._roots_of_rows(rows)
    assert batch.shape == (sec.dim, sec.n_top) and has.all()
    backwards = bethe._roots_of_rows(rows[::-1])[0]
    for row, roots, roots_back in zip(rows, batch, backwards[::-1]):
        alone, alone_has = bethe._roots_of_rows(row[None])
        assert alone.shape == (1, sec.n_top) and alone_has.all()
        assert roots.tobytes() == alone[0].tobytes() == roots_back.tobytes()


def test_high_precision_route_raises_without_interaction():
    """At g = 0 every C(m) vanishes; the mpmath route's forward recurrence
    raises ZeroDivisionError, whether its first step divides x/0 or 0/0.
    (The solver never builds such rows: it solves a diagonal block
    exactly.)"""
    model = make_model(2, 1, (1, 1, 1), w=[0.5, -0.25, 1.5], g=0)
    sec = sector_from_occupations(model, (0, 0, 4))
    op = expand_diffop(model, sec)
    for m in (0, 1):   # E = B(0): (E - B(0)) / C(1) is 0/0; E = B(1): x/0
        energy = float(op.hop_values[1][m])
        with pytest.raises(ZeroDivisionError):
            high_precision_coefficients(op, energy)


_SPECIAL_ROOTS = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
                  complex(-math.inf, 1.0), complex(0.0, math.inf), 0j, 1 + 0j, 1 + 1e-12j]


@settings(max_examples=300, deadline=None)
@given(base=st.lists(st.one_of(st.complex_numbers(), st.sampled_from(_SPECIAL_ROOTS)),
                     max_size=10),
       repeats=st.lists(st.integers(0, 9), max_size=3),
       rel_tol=st.sampled_from([0.0, 1e-10, 1e-6, 1e-2, 1.0, 1e300]),
       others=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 12)), max_size=3))
@example(base=[3.388438665504959e+16 + 4.512108963653434e+16j, 0j], repeats=[], rel_tol=1.0,
         others=[])
def test_has_close_pair_matches_double_loop(base, repeats, rel_tol, others):
    """NaN, infinite and exactly equal roots among the inputs, one root set
    alone and as the first row of a stack.  Each further row picks the
    roots at i * step + shift (mod N), so a step sharing a factor with N
    repeats roots and a step of 0 repeats one N times."""
    items = base + [base[i % len(base)] for i in repeats] if base else []
    n = len(items)
    roots = np.array(items, dtype=complex)
    stack = np.array([items] + [[items[(i * step + shift) % n] for i in range(n)]
                                for step, shift in others], dtype=complex)
    with np.errstate(all="ignore"):
        assert (bethe._close_sorted(np.sort(roots)[None], rel_tol)[0]
                == has_close_pair(roots, rel_tol))
        flags = bethe._close_sorted(np.sort(stack, axis=1), rel_tol)
        assert flags == [has_close_pair(row, rel_tol) for row in stack]
    assert all(type(flag) is bool for flag in flags)
