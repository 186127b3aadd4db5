"""Closed-form tables for the condensate cases versus the general machinery."""

from fractions import Fraction

import numpy as np
import pytest

from multiboson import (KNOWN_DISCREPANCIES, bethe_residuals, discrepancy_delta,
                        energy_from_roots, expand_diffop, preset, sector_from_occupations,
                        tabulated_bae_residuals, tabulated_coefficients, tabulated_energy,
                        tabulated_operator_polys, verify_case)
from multiboson.models import random_case_inputs


def test_preset_shapes():
    assert preset("A", g=1).k == (1, 1, 1)
    assert preset("B", g=1).k == (1, 1, 2)
    model_c = preset("C", g=1)
    assert (model_c.r, model_c.s, model_c.k) == (2, 2, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        preset("D")
    with pytest.raises(ValueError):
        preset("A", w=[1, 2])


def test_case_a_zero_couplings():
    model = preset("A", g=1)
    sec = sector_from_occupations(model, (0, 0, 3))
    coeffs = tabulated_coefficients("A", model, sec)
    assert coeffs["A11"] == 0
    assert coeffs["B11"] == 0


def test_case_b_b21_example():
    model = preset("B", g=1)
    sec = sector_from_occupations(model, (0, 0, 2))  # q3 = 1/4, N = 1
    assert sec.kappa == Fraction(9, 8)
    assert sec.q2 == (Fraction(1, 4),)
    assert sec.n_top == 1
    coeffs = tabulated_coefficients("B", model, sec)
    assert coeffs["B21"] == -2


def test_case_c_b22_example():
    model = preset("C", g=1)
    sec = sector_from_occupations(model, (0, 0, 1, 1))  # l1 = l3 = 0, kappa = 3/2
    assert sec.kappa == Fraction(3, 2)
    assert sec.n_top == 1
    coeffs = tabulated_coefficients("C", model, sec)
    assert coeffs["B22"] == -1


def test_case_b_both_towers_appear():
    rng = np.random.default_rng(0)
    towers = set()
    for _ in range(40):
        _, sec = random_case_inputs("B", rng)
        towers.add(sec.q2[0])
    assert towers == {Fraction(1, 4), Fraction(3, 4)}


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_verify_case_clean(case):
    report = verify_case(case, draws=25, seed=13)
    assert report.ok, [it for it in report.items if it.status == "MISMATCH"][:5]
    counts = report.counts()
    assert counts["MISMATCH"] == 0
    assert counts["match"] > 0


def test_known_discrepancies_are_oracle_backed():
    """Each registered table-side error equals its exact predicted delta."""
    rng = np.random.default_rng(99)
    for disc in KNOWN_DISCREPANCIES:
        model, sec = random_case_inputs(disc.case, rng)
        op = expand_diffop(model, sec)
        delta = discrepancy_delta(disc.case, disc.item, model, sec)
        table = tabulated_coefficients(disc.case, model, sec)
        if disc.item == "B11":
            assert op.p[1].coeffs[1] - table["B11"] == delta
        elif disc.item == "D22":
            assert op.p[1].coeffs[1] - table["D22"] == delta
        elif disc.item == "P0-constant":
            general_p0 = op.p[0].coeffs[0] if op.p[0].coeffs else 0
            assert general_p0 == table["G21"] == delta
        elif disc.item == "energy-w33":
            roots = (Fraction(1, 2), Fraction(-2, 3))[: sec.n_top]
            general = energy_from_roots(model, sec, roots)
            tabulated = tabulated_energy(disc.case, model, sec, roots)
            assert general - tabulated == delta


def test_case_a_energy_matches_general_exactly():
    """The tabulated case-A energy is exact even though B11 is not."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        model, sec = random_case_inputs("A", rng)
        roots = tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                      for _ in range(sec.n_top))
        assert tabulated_energy("A", model, sec, roots) == energy_from_roots(model, sec, roots)


def test_case_c_energy_matches_general_exactly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        model, sec = random_case_inputs("C", rng)
        roots = tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                      for _ in range(sec.n_top))
        assert tabulated_energy("C", model, sec, roots) == energy_from_roots(model, sec, roots)


def test_tabulated_bae_matches_general_residuals():
    """The printed two-derivative root-equation form equals the general one."""
    rng = np.random.default_rng(8)
    for case in ["A", "B", "C"]:
        model, sec = random_case_inputs(case, rng)
        op = expand_diffop(model, sec)
        n = sec.n_top
        roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = tabulated_bae_residuals(roots, op.p[2], op.p[1])
        want = bethe_residuals(op, roots)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_tabulated_forms_require_reference_labels():
    model = preset("A", g=1)
    sec = sector_from_occupations(model, (0, 5, 3))  # mode 1 pins the base state
    with pytest.raises(ValueError):
        tabulated_coefficients("A", model, sec)


def test_tabulated_p0_case_c_includes_constant():
    rng = np.random.default_rng(17)
    model, sec = random_case_inputs("C", rng)
    op = expand_diffop(model, sec)
    _, _, p0 = tabulated_operator_polys("C", model, sec)
    assert op.p[0] == p0
