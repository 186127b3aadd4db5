"""Sector blocks: construction, diagonalization, and charge conservation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiboson import (ConditioningWarning, Sector, build_monomial_matrix, build_sector_matrix,
                        diagonalize, hamiltonian, make_model, occupations_at,
                        sector_from_occupations, transition_element)
from oracles import (bfs_sector_states, lower_move, occupations_below, raise_move,
                     sqrt_rounded, transition_oracle)


MODEL_A = make_model(2, 1, (1, 1, 1), g=1)
SEC_A = sector_from_occupations(MODEL_A, (0, 0, 1))


def test_fock_block_micro_example():
    block = build_sector_matrix(MODEL_A, SEC_A)
    assert block.diag.tolist() == [0.0, 0.0]
    assert block.upper.tolist() == [1.0]
    assert np.array_equal(block.to_dense(), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_fock_block_diagonal_readoff():
    model = make_model(2, 1, (1, 1, 1), w=[2, 0, 0], g=1)
    block = build_sector_matrix(model, SEC_A)
    assert block.diag.tolist() == [0.0, 2.0]


def test_fock_block_mixed_power_element():
    model = make_model(2, 1, (1, 1, 2), g=1)
    sec = sector_from_occupations(model, (2, 1, 4))
    block = build_sector_matrix(model, sec)
    assert block.upper[0] == pytest.approx(math.sqrt(60), rel=1e-15)
    assert block.upper.tolist() == block.lower.tolist()


def test_monomial_block_micro_example():
    block = build_monomial_matrix(MODEL_A, SEC_A)
    assert block.diag.tolist() == [0.0, 0.0]
    assert block.upper.tolist() == [1.0]   # A(0)
    assert block.lower.tolist() == [1.0]   # C(1)


def test_monomial_upper_matches_falling_factorial_product():
    # with a float g, float Horner on the expanded hop polynomial A(n)
    # cancels near its zero at n=N: off by up to 5.5e-4 relative on this
    # sector, enough to move levels 6 and 7 of the monomial spectrum off
    # the Fock ones by 1.7e-8 of the spectral scale
    g = 0.7315158295827009
    model = make_model(3, 3, (2, 1, 1, 3, 3, 3), g=g)
    sec = sector_from_occupations(model, (4, 0, 1, 39, 40, 40))
    assert sec.n_top == 13
    expected = []
    for n in range(sec.n_top):
        occ = occupations_at(model, sec, n)
        prod = math.prod(occ[i] - d for i in model.group2 for d in range(model.k[i]))
        expected.append(g * prod)
    assert build_monomial_matrix(model, sec).upper.tolist() == pytest.approx(expected, rel=1e-12)


def test_monomial_and_fock_share_diagonal():
    model = make_model(2, 2, (1, 2, 2, 1), w=[0.3, -0.2, 0.7, 0.1],
                       wq={(0, 2): 0.4, (1, 1): -0.3}, g=0.9)
    sec = sector_from_occupations(model, (3, 4, 6, 2))
    fock = build_sector_matrix(model, sec)
    mono = build_monomial_matrix(model, sec)
    assert np.array_equal(fock.diag, mono.diag)   # one helper builds both


@pytest.mark.parametrize("rska,occ", [
    ((2, 1, (1, 1, 2)), (2, 1, 30)),
    ((3, 3, (2, 1, 1, 3, 3, 3)), (4, 0, 1, 39, 40, 40)),
    ((1, 3, (3, 3, 3, 3)), (34, 12, 17, 12)),
    ((2, 1, (2, 2, 3)), (0, 1, 120)),      # occupations up to 120
])
def test_fock_off_diagonal_squares_to_hop_product(rska, occ):
    """The factorial-ratio square roots of the Fock block, built on their
    own, square to A(n) C(n+1): the similarity that ties the two blocks."""
    r, s, k = rska
    model = make_model(r, s, k, w=[0.5] * (r + s), g=0.7315158295827009)
    sec = sector_from_occupations(model, occ)
    fock = build_sector_matrix(model, sec)
    mono = build_monomial_matrix(model, sec)
    assert fock.upper ** 2 == pytest.approx(mono.upper * mono.lower, rel=1e-12)


def test_diagonalize_two_by_two():
    spec = diagonalize(build_sector_matrix(MODEL_A, SEC_A))
    assert np.allclose(spec.energies, [-1.0, 1.0], atol=1e-14)
    # phase convention: largest-magnitude component positive
    assert all(spec.vectors[np.argmax(np.abs(spec.vectors[:, j])), j] > 0 for j in range(2))


def test_diagonal_limit_g_zero():
    model = make_model(2, 1, (1, 1, 1), w=[0.5, -1.5, 0.25], g=0)
    sec = sector_from_occupations(model, (1, 0, 4))
    block = build_sector_matrix(model, sec)
    spec = diagonalize(block)
    assert np.allclose(spec.energies, np.sort(block.diag), atol=0)
    mono = diagonalize(build_monomial_matrix(model, sec))
    assert np.allclose(mono.energies, spec.energies, atol=0)
    # the monomials z^n themselves, in the stable order of B(n)
    assert np.array_equal(mono.vectors, np.eye(sec.dim)[:, np.argsort(block.diag, kind="stable")])


@pytest.mark.parametrize("seed", range(6))
def test_isospectrality_random_models(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    k = [int(rng.integers(1, 3)) for _ in range(r + s)]
    n = r + s
    w = rng.uniform(-1, 1, n)
    wq = {(i, j): rng.uniform(-1, 1) for i in range(n) for j in range(i, n)}
    g = rng.uniform(0.1, 2.0)
    model = make_model(r, s, k, w=w, wq=wq, g=g)
    levels = [int(rng.integers(0, 11)) for _ in range(n)]
    anchor = [k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n)]
    sec = sector_from_occupations(model, anchor)
    assert sec.dim <= 31
    f = diagonalize(build_sector_matrix(model, sec))
    m = diagonalize(build_monomial_matrix(model, sec))
    scale = max(1.0, float(np.max(np.abs(f.energies))))
    assert np.max(np.abs(f.energies - m.energies)) <= 1e-10 * scale
    # trace identity
    assert np.sum(f.energies) == pytest.approx(np.sum(build_sector_matrix(model, sec).diag),
                                               rel=1e-10, abs=1e-10 * scale)
    # eigenpair residual ||A v - E v|| / ||v|| bound relative to the matrix norm
    dense = build_sector_matrix(model, sec).to_dense()
    resid = np.max(np.linalg.norm(dense @ f.vectors - f.vectors * f.energies, axis=0)
                   / np.linalg.norm(f.vectors, axis=0))
    assert resid <= 1e-10 * max(1.0, np.linalg.norm(dense, 2))


def test_charge_conservation_structural():
    model = make_model(2, 1, (1, 1, 2), g=1)
    for occ in occupations_below(3, 6):
        sec = sector_from_occupations(model, occ)
        for move in (lower_move, raise_move):
            target = move(model, occ)
            if target is not None:
                assert sector_from_occupations(model, target) == sec
        assert occ in bfs_sector_states(model, occ)


def test_conditioning_warning_on_huge_entries():
    model = make_model(2, 2, (1, 1, 3, 3), g=1)
    sec = sector_from_occupations(model, (0, 0, 200, 200))
    assert sec.dim > 61
    # monomial entries are full falling-factorial products (~1e13 here)
    with pytest.warns(ConditioningWarning):
        build_monomial_matrix(model, sec)
    # the square-rooted Fock entries stay moderate for the same sector
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error", ConditioningWarning)
        build_sector_matrix(model, sec)


def test_monomial_eigenvectors_are_monomial_basis():
    # eigenvectors returned in the block's own basis: applying the
    # non-symmetric block must reproduce eigenvalue times vector; each
    # column is the twisted factorization's, peak-normalized
    model = make_model(2, 1, (1, 1, 2), w=[0.2, -0.4, 0.6], g=1.1)
    sec = sector_from_occupations(model, (2, 1, 4))
    block = build_monomial_matrix(model, sec)
    spec = diagonalize(block)
    assert np.array_equal(np.abs(spec.vectors).max(axis=0), np.ones(block.dim))
    assert np.array_equal(spec.vectors, hamiltonian._twisted_rows(block, spec.energies).T)
    for j in range(block.dim):
        v = spec.vectors[:, j]
        assert np.allclose(block.to_dense() @ v, spec.energies[j] * v, atol=1e-9)


def test_zero_pivot_leaves_every_eigenvector_finite():
    """On this N=2 block level 1's eigenvalue is E = 0.2 in float64, equal
    to the last diagonal entry, so the first bottom-up pivot d_N = B(N) - E
    is exactly zero.  Replaced by eps times the block's scale before it
    divides, it gives a finite column, an eigenvector to
    1e-15, whose eigenpolynomial has the roots +-sqrt(2)."""
    model = make_model(2, 1, (1, 1, 1), w=[0.3, -0.2, 0.1], g=1.0)
    sec = sector_from_occupations(model, (0, 0, 2))
    block = build_monomial_matrix(model, sec)
    spec = diagonalize(block)
    assert block.diag[-1] - spec.energies[1] == 0.0
    assert np.all(np.isfinite(spec.vectors))
    column = spec.vectors[:, 1]
    assert np.allclose(block.to_dense() @ column, spec.energies[1] * column, rtol=0, atol=1e-15)
    roots = np.sort(np.roots(column[::-1]))
    assert np.allclose(roots, [-math.sqrt(2), math.sqrt(2)], rtol=0, atol=1e-14)
    assert np.all(roots.imag == 0)


def test_fock_block_rejects_a_negative_factor_of_a_positive_product():
    """The Fock block reads its products off the sector's hop table, and
    still rejects a hand-built sector whose occupations make a factor
    negative, as `transition_element` does: here one level too many takes
    the k = 2 mode of group 2 to m = -1, whose factors (-1)(-2) multiply to
    a positive product."""
    model = make_model(1, 1, (1, 2), g=1)
    good = sector_from_occupations(model, (0, 5))
    assert good.n_top == 2
    doctored = Sector(q1=good.q1, q2=good.q2, l1=good.l1, l2=good.l2, kappa=good.kappa,
                      t=good.t, dim=5, base_occupations=good.base_occupations)
    with pytest.raises(ValueError, match="negative factorial ratio"):
        transition_element(model, (3, -1))
    with pytest.raises(ValueError, match="negative factorial ratio"):
        build_sector_matrix(model, doctored)


# The four ladder elements of 200 draws of the benchmark's
# `random_sector(default_rng(1), 1, 24)` whose exact products pass 2^53 and
# whose roots `math.sqrt` took one ulp off, through the float it rounds
# such a product to first: (r, s, k), occupations, correctly rounded root.
ABOVE_2_53 = [
    ((3, 3, (3, 3, 3, 3, 1, 3)), (20, 16, 15, 48, 16, 49), "0x1.b6e22f9d5a5d2p+37"),
    ((3, 3, (1, 3, 3, 1, 3, 1)), (11, 28, 32, 15, 51, 15), "0x1.1d07c1a011333p+29"),
    ((2, 3, (2, 3, 3, 2, 3)), (13, 18, 47, 33, 43), "0x1.a9a2bdbd43144p+31"),
    ((3, 2, (3, 3, 2, 3, 2)), (38, 36, 25, 38, 20), "0x1.9a2b708f7ef88p+32"),
]


def test_transition_elements_above_2_53_are_correctly_rounded():
    """Each of the four elements is the correctly rounded root of its
    exact product, as the oracle's own form gives it, one ulp from the
    root of the product rounded to float."""
    for (r, s, k), occ, root in ABOVE_2_53:
        model = make_model(r, s, k, g=1)
        element = transition_element(model, occ)
        assert element == float.fromhex(root) == transition_oracle(model, occ)
        product = math.prod(occ[i] + j for i in range(r) for j in range(1, k[i] + 1)) * \
            math.prod(occ[i] - j for i in range(r, r + s) for j in range(k[i]))
        assert product > 2**53 and _rounds_sqrt(element, product)
        assert math.sqrt(product) in (math.nextafter(element, 0), math.nextafter(element, math.inf))


def test_element_of_a_product_past_float_range_is_its_rounded_root():
    """A product past 2^1024 whose root is not (about 2.2e250 here) gives
    that root, correctly rounded, where converting the product to float
    first raised `OverflowError`; a root past float64's range still
    raises it."""
    model = make_model(2, 2, (5, 1, 5, 1), g=1)
    for m, finite in ((10**50, True), (10**120, False)):
        occ = (m, 0, m, 5)
        product = math.prod(m + j for j in range(1, 6)) * math.prod(m - j for j in range(5)) * 5
        assert 2**1024 < product
        if finite:
            assert transition_element(model, occ) == sqrt_rounded(product) < math.inf
        else:
            with pytest.raises(OverflowError):
                transition_element(model, occ)


def _rounds_sqrt(x, n):
    """Whether x is sqrt(n) rounded to nearest, ties to an even mantissa:
    n lies inside the squared bounds of x's rounding interval, exact
    `Fraction`s, or on one of them with x's mantissa even."""
    lo = (Fraction(math.nextafter(x, 0)) + Fraction(x)) / 2
    hi = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    even = int(math.frexp(x)[0] * 2**53) % 2 == 0
    return lo * lo < n < hi * hi or (n in (lo * lo, hi * hi) and even)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(0, 2**2000),
    st.integers(0, 2**1000).map(lambda m: m * m),
    # squares of 54-bit odd integers, shifted by an even count: the roots
    # lie exactly halfway between two floats, and their neighbours next to it
    st.tuples(st.integers(2**53, 2**54 - 1), st.integers(0, 400), st.integers(-1, 1)).map(
        lambda t: ((t[0] | 1) ** 2 << 2 * t[1]) + t[2])))
@example(2**53 + 1)
@example((2**53 + 1) ** 2)
def test_sqrt_of_a_product_is_correctly_rounded(n):
    """The Fock elements' square root, and the oracle's, round the exact
    root of any integer product once, to nearest, ties to even."""
    assert _rounds_sqrt(hamiltonian._rounded_sqrt(n), n)
    assert _rounds_sqrt(sqrt_rounded(n), n)
