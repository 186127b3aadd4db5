"""Algebra relations, structure polynomial, and ladder coefficients."""

import math
from fractions import Fraction

import pytest

from multiboson import (boson_generators, build_sector_matrix, ladder_coefficients,
                        lowering_amplitude, make_model, casimir_value, occupations_at,
                        phi_polynomial, preset, raising_amplitude, sector_from_occupations,
                        transition_element, verify_single_mode_algebra)
from multiboson.fock import Sector
from oracles import transition_oracle


def test_phi_k1_is_affine():
    for x in [Fraction(0), Fraction(3, 7), Fraction(-2), Fraction(11, 4)]:
        assert phi_polynomial(1, x) == -x - 1
    assert phi_polynomial(1, 0) == -1


def test_phi_k2_hand_expansion():
    # phi for k=2 expands to -x^2 - x
    assert phi_polynomial(2, Fraction(1, 4)) == Fraction(-5, 16)
    assert phi_polynomial(2, 0) == 0
    for x in [Fraction(1, 3), Fraction(-5, 2), Fraction(2)]:
        assert phi_polynomial(2, x) == -x * x - x


def test_casimir_values():
    assert casimir_value(2) == Fraction(3, 16)
    assert casimir_value(1) == -1
    assert casimir_value(3) == Fraction(-28, 729)


def test_phi_degree_and_leading_coefficient():
    for k in range(1, 5):
        vals = [phi_polynomial(k, Fraction(n)) for n in range(k + 2)]
        for _ in range(k):
            vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        assert vals[0] == -math.factorial(k)       # leading coefficient -1
        assert len(vals) == 2 and vals[1] == vals[0]  # degree exactly k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_single_mode_algebra_identities(k):
    report = verify_single_mode_algebra(k, trunc=6 * k)
    assert report.passed, [c for c in report.checks if not c.passed]
    for check in report.checks:
        assert check.max_error <= 1e-12


def test_ladder_unit_example():
    model = make_model(2, 1, (1, 1, 1), g=1)
    sec = sector_from_occupations(model, (0, 0, 1))
    lad = ladder_coefficients(model, sec)
    assert lad.up.tolist() == [1.0]
    assert lad.down.tolist() == [1.0]
    # P0 diagonal: n - 1/2 for this sector
    assert lad.diag.tolist() == [-0.5, 0.5]


def test_ladder_mixed_power_example():
    model = make_model(2, 1, (1, 1, 2), g=1)
    sec = sector_from_occupations(model, (2, 1, 4))
    lad = ladder_coefficients(model, sec)
    assert lad.up[0] == pytest.approx(math.sqrt(60) / 2, rel=1e-15)


def test_lowering_product_vanishes_at_base():
    for anchor in [(2, 1, 4), (0, 0, 1), (3, 0, 8)]:
        model = make_model(2, 1, (1, 1, 2), g=1)
        sec = sector_from_occupations(model, anchor)
        assert lowering_amplitude(model, sec, 0) == 0.0


def test_raising_and_lowering_paths_agree():
    """Unitarity bit for bit: the raising and lowering products are the
    same integers and take the one square root, also at N = 47, where
    occupations reach 60 (9 of its elements differed while occupations
    above 20 took a log-space sum)."""
    model = make_model(2, 2, (1, 2, 2, 1), g=1)
    for anchor in [(3, 4, 6, 2), (30, 44, 60, 25)]:
        sec = sector_from_occupations(model, anchor)
        for n in range(sec.n_top):
            up = raising_amplitude(model, sec, n)
            down = lowering_amplitude(model, sec, n + 1)
            assert down == up


def test_ladder_matches_direct_factorials():
    cases = [
        ((2, 1, (1, 1, 2)), (2, 1, 4)),
        ((2, 2, (1, 2, 2, 1)), (3, 4, 6, 2)),
        ((1, 2, (3, 1, 2)), (6, 2, 5)),
    ]
    for (r, s, k), anchor in cases:
        model = make_model(r, s, k, g=1)
        sec = sector_from_occupations(model, anchor)
        norm = math.prod(ki ** (ki / 2.0) for ki in model.k)
        lad = ladder_coefficients(model, sec)
        for n in range(sec.n_top):
            occ = occupations_at(model, sec, n)
            assert lad.up[n] * norm == pytest.approx(transition_oracle(model, occ), rel=1e-12)


def test_transition_element_log_path_matches_exact_factorials():
    """Every matrix element is the square root of the exact integer
    product, bit for bit, at any occupation: the three cases here and
    every Fock off-diagonal element of the N = 40 grid.  Occupations above
    20 once took a log-space sum, which differed on all three cases."""
    model = make_model(1, 1, (2, 3), g=1)
    for occ in [(30, 45), (55, 23), (120, 90)]:
        assert transition_element(model, occ) == transition_oracle(model, occ)
    w = [0.4, -0.3, 0.2]
    for case, couplings, anchor in [("A", w, (0, 3, 40)), ("B", w, (0, 3, 80)),
                                    ("C", w + [0.1], (0, 3, 40, 42))]:
        grid = preset(case, w=couplings, wq={(0, 1): 0.5}, g=0.8)
        sec = sector_from_occupations(grid, anchor)
        assert sec.n_top == 40
        upper = build_sector_matrix(grid, sec).upper
        for n in range(sec.n_top):
            occ = occupations_at(grid, sec, n)
            assert upper[n] == float(grid.g) * transition_oracle(grid, occ)


def test_invalid_sector_rejected():
    model = make_model(2, 1, (1, 1, 1), g=1)
    good = sector_from_occupations(model, (0, 0, 1))
    doctored = Sector(q1=good.q1, q2=good.q2, l1=good.l1, l2=good.l2,
                      kappa=good.kappa, t=good.t, dim=4,
                      base_occupations=good.base_occupations)
    with pytest.raises(ValueError):
        ladder_coefficients(model, doctored)


def test_generator_matrix_structure():
    gen = boson_generators(3, 12)
    assert gen.qplus.shape == (12, 12)
    # adjoint pairing and band structure: k-th subdiagonal only
    assert (gen.qplus == gen.qminus.T).all()
    for row in range(12):
        for col in range(12):
            if gen.qplus[row, col] != 0:
                assert row == col + 3
    import numpy as np

    diag = np.diag(gen.qzero)
    assert np.allclose(diag, [(m + 1.0 / 3) / 3 for m in range(12)])
    assert np.count_nonzero(gen.qzero - np.diag(diag)) == 0


def test_single_group_sizes_have_empty_l_vectors():
    model = make_model(1, 2, (2, 1, 1), g=1)
    sec = sector_from_occupations(model, (5, 3, 2))
    assert sec.l1 == ()
    assert len(sec.l2) == 1
    assert sec.s1() == (0,)
    lad = ladder_coefficients(model, sec)
    assert len(lad.up) == sec.n_top
