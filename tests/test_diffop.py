"""Differential-operator expansion: hop polynomials and reassembly."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiboson import (Polynomial, apply_to_polynomial, expand_diffop,
                        falling_factorial_coefficients, hop_values, make_model,
                        sector_from_occupations)
from multiboson.fock import Sector
from oracles import hop_polynomials, operator_polynomials, poly_value


def test_polynomial_basics():
    p = Polynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial(()).degree == -1
    assert not Polynomial((0, 0))
    q = Polynomial((0, 1))
    assert (p * q).coeffs == (0, 1, 2)
    assert (p + q).coeffs == (1, 3)
    assert (p - p).coeffs == ()
    assert (3 * q).coeffs == (0, 3)
    assert p(Fraction(1, 2)) == 2
    assert Polynomial((0, 0, 1)).derivative().coeffs == (0, 2)
    assert Polynomial((5,)).derivative().coeffs == ()


def test_falling_factorial_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        deg = int(rng.integers(0, 6))
        poly = Polynomial([int(rng.integers(-9, 10)) for _ in range(deg + 1)])
        cs = falling_factorial_coefficients(poly)
        for n in range(deg + 3):
            total = 0
            ff = 1
            for i, c in enumerate(cs):
                total += c * ff
                ff *= n - i
            assert total == poly(n)


MODEL_A = make_model(2, 1, (1, 1, 1), g=1)
SEC_A = sector_from_occupations(MODEL_A, (0, 0, 1))


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def _exact_models_and_sectors(draw):
    """A model with r, s, k_i in 1..3 and Fraction couplings, and a sector
    anchored at occupations m_i < 7 k_i, so that N <= 6 + 6 = 12."""
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = r + s
    k = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    w = draw(st.lists(_FRACTIONS, min_size=n, max_size=n))
    wq = {(i, j): draw(_FRACTIONS) for i in range(n) for j in range(i, n)}
    g = draw(_FRACTIONS)
    model = make_model(r, s, k, w=w, wq=wq, g=g)
    occ = [draw(st.integers(0, 7 * ki - 1)) for ki in k]
    return model, sector_from_occupations(model, occ)


@settings(max_examples=100, deadline=None)
@given(case=_exact_models_and_sectors())
def test_hop_values_are_the_hop_polynomials_at_the_levels(case):
    """The occupation products equal the oracle's expanded polynomials,
    evaluated exactly, at every level; the polynomials vanish exactly at
    A(N) and C(0); and the operator is the oracle's, coefficient for
    coefficient."""
    model, sec = case
    n_top = sec.n_top
    assert n_top <= 12
    hop_a, hop_b, hop_c = hop_polynomials(model, sec)
    values = hop_values(model, sec)
    assert values == (tuple(poly_value(hop_a, n) for n in range(n_top)),
                      tuple(poly_value(hop_b, n) for n in range(n_top + 1)),
                      tuple(poly_value(hop_c, n) for n in range(1, n_top + 1)))
    assert all(type(x) in (int, Fraction) for part in values for x in part)
    assert poly_value(hop_a, n_top) == 0
    assert poly_value(hop_c, 0) == 0
    assert [list(p.coeffs) for p in expand_diffop(model, sec).p] == \
        operator_polynomials(model, sec)


_FLOATS = st.floats(min_value=-3, max_value=3, allow_subnormal=False)


@st.composite
def _float_models_and_sectors(draw):
    """`_exact_models_and_sectors` with float couplings in [-3, 3]."""
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = r + s
    k = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    w = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    wq = {(i, j): draw(_FLOATS) for i in range(n) for j in range(i, n)}
    model = make_model(r, s, k, w=w, wq=wq, g=draw(_FLOATS))
    occ = [draw(st.integers(0, 7 * ki - 1)) for ki in k]
    return model, sector_from_occupations(model, occ)


def _float_case(r, s, k, w, wq, g, anchor):
    model = make_model(r, s, k, w=w, wq={(i, j): x for i, j, x in wq}, g=g)
    return model, sector_from_occupations(model, anchor)


# two random sectors of the benchmark's small-sector stream where
# differencing float values of the hop polynomials gave a P_i a coefficient
# the exact operator lacks: P_4 a z^5 term of -1.8e-10, P_3 a z^4 term of 2.8e-14
_SPURIOUS_COEFFICIENT_SECTORS = (
    _float_case(3, 3, (2, 1, 2, 3, 1, 3),
                (-0.9342405486664163, -0.6079969916617927, -0.3802985665478349,
                 0.0613104804795388, -0.20404408530220164, -0.9091693608205427),
                [(0, 0, -0.7111932284319498), (0, 1, -0.9631800316029815),
                 (0, 2, -0.9191493654752723), (0, 3, -0.40508787085722453),
                 (0, 4, 0.27704722313504937), (0, 5, -0.693351703941756),
                 (1, 1, 0.7671614014455796), (1, 2, 0.9746411538001827),
                 (1, 3, 0.2300932282919419), (1, 4, -0.9033491071411028),
                 (1, 5, -0.6368499225201751), (2, 2, 0.021982084425782533),
                 (2, 3, 0.8697960946902181), (2, 4, 0.9638105652289575),
                 (2, 5, 0.47361950995291324), (3, 3, 0.7806463288292933),
                 (3, 4, -0.8057425058218943), (3, 5, 0.014455703639635331),
                 (4, 4, -0.0434750217897244), (4, 5, -0.5667496456077878),
                 (5, 5, 0.12815575958406944)],
                1.1696041437660127, (0, 1, 0, 6, 2, 8)),
    _float_case(2, 2, (1, 1, 3, 1),
                (-0.20810656040897824, -0.6977733080998014, 0.7041254248450604,
                 0.8370693160098455),
                [(0, 0, -0.42098046489361085), (0, 1, 0.7447985892959317),
                 (0, 2, -0.6439287344787066), (0, 3, 0.4222794426055345),
                 (1, 1, -0.4986694770016429), (1, 2, -0.1089528397623003),
                 (1, 3, 0.22201735660789268), (2, 2, -0.2977013892816025),
                 (2, 3, -0.604309726282392), (3, 3, 0.17571263240890134)],
                1.6085176324490345, (0, 0, 6, 1)),
)


@settings(max_examples=200, deadline=None)
@given(case=_float_models_and_sectors())
@example(case=_SPURIOUS_COEFFICIENT_SECTORS[0])
@example(case=_SPURIOUS_COEFFICIENT_SECTORS[1])
def test_float_operator_matches_the_exact_expansion(case):
    """With float couplings every P_i is within 1e-12 of its largest
    coefficient of the exact expansion of the same couplings as Fractions,
    and has the same coefficient count: no coefficient the exact operator
    lacks, none it has dropped."""
    model, sec = case
    op = expand_diffop(model, sec)
    exact = operator_polynomials(model, sec)
    assert len(op.p) == len(exact)
    for i, (got, want) in enumerate(zip(op.p, exact)):
        assert len(got.coeffs) == len(want), (i, got, want)
        scale = max((abs(c) for c in want), default=0)
        assert all(abs(Fraction(x) - c) <= Fraction(1e-12) * scale
                   for x, c in zip(got.coeffs, want)), (i, got, want)


def test_operator_coefficient_is_an_integer_times_g_exactly():
    """P_8's z^9 coefficient is exactly 2916 g: the top falling-factorial
    coefficient of A, prod over group 2 of (-k_i)^k_i, multiplied by g once
    (differencing float values of A put it 8.3e-9 off)."""
    g = 1.6631419323448537
    model = make_model(1, 3, (2, 3, 2, 3), g=g)
    sec = sector_from_occupations(model, (36, 16, 14, 15))
    assert expand_diffop(model, sec).p[8].coeffs[9] == 2916 * g


def test_hop_table_is_kept_for_the_objects_not_for_equal_ones():
    """One (model, sector) pair's operator, blocks and `hop_values` share
    one hop table, kept for those objects: an equal model, with g = 1/2 a
    float in place of a Fraction, gets a table of its own."""
    exact = make_model(1, 1, (1, 2), w=[1, Fraction(1, 3)], g=Fraction(1, 2))
    sec = sector_from_occupations(exact, (0, 6))
    rounded = dataclasses.replace(exact, g=0.5)
    assert rounded == exact and sec.n_top == 3
    for model, kind in ((exact, Fraction), (rounded, float), (exact, Fraction)):
        assert all(type(x) is kind for x in hop_values(model, sec)[0])
        assert type(expand_diffop(model, sec).p[2].coeffs[-1]) is kind     # 4 g


def test_hop_micro_example():
    hop_a, hop_b, hop_c = hop_polynomials(MODEL_A, SEC_A)
    assert hop_a == [1, -1]      # 1 - n
    assert hop_c == [0, 0, 1]    # n^2
    assert not hop_b


def test_qes_zeros_random_sectors():
    rng = np.random.default_rng(11)
    for _ in range(40):
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        k = [int(rng.integers(1, 4)) for _ in range(r + s)]
        n = r + s
        w = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(n)]
        g = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        model = make_model(r, s, k, w=w, g=g)
        levels = [int(rng.integers(0, 8)) for _ in range(n)]
        anchor = [k[i] * levels[i] + int(rng.integers(0, k[i])) for i in range(n)]
        sec = sector_from_occupations(model, anchor)
        hop_a, _, hop_c = hop_polynomials(model, sec)
        assert poly_value(hop_a, sec.n_top) == 0     # exact rational zero
        assert poly_value(hop_c, 0) == 0
        assert len(hop_a) - 1 == sum(k[:r]) * 0 + sum(k[r:])
        assert len(hop_c) - 1 == sum(k[:r])


def test_expand_micro_example():
    op = expand_diffop(MODEL_A, SEC_A)
    assert op.order == 2
    assert op.p[1] == Polynomial((1, 0, -1))   # g(1 - z^2)
    assert op.p[2] == Polynomial((0, 1))       # g z
    # P0 carries hopA(0) z + hopB(0) = z: the monomial matrix demands
    # H 1 = A(0) z, so P0 cannot vanish here
    assert op.p[0] == Polynomial((0, 1))


def test_expand_case_b_structure():
    model = make_model(2, 1, (1, 1, 2), w=[Fraction(1, 2), Fraction(-1, 3), 1],
                       wq={(0, 1): Fraction(2, 5), (2, 2): Fraction(1, 7)}, g=Fraction(3, 2))
    sec = sector_from_occupations(model, (2, 1, 4))
    op = expand_diffop(model, sec)
    assert op.order == 2
    assert op.p[2].degree == 3
    assert op.p[2].coeffs[3] == 4 * model.g
    assert op.p[2].coeffs[1] == model.g


def test_reassembly_exactness():
    model = make_model(2, 2, (1, 2, 2, 1), w=[Fraction(1, 3), -2, Fraction(3, 7), 1],
                       wq={(0, 0): Fraction(1, 2), (1, 3): Fraction(-2, 3)}, g=Fraction(5, 4))
    sec = sector_from_occupations(model, (3, 4, 6, 2))
    hop_a, hop_b, hop_c = hop_polynomials(model, sec)
    op = expand_diffop(model, sec)
    for n in range(sec.n_top + 3):
        # apply sum_i P_i (d/dz)^i to z^n directly, no subspace guard
        zn = Polynomial([0] * n + [1])
        out = op.p[0] * zn
        for i in range(1, op.order + 1):
            out = out + op.p[i] * zn.derivative(i)
        want = Polynomial([0] * (n + 1) + [poly_value(hop_a, n)])
        want = want + Polynomial([0] * n + [poly_value(hop_b, n)])
        if n >= 1:
            want = want + Polynomial([0] * (n - 1) + [poly_value(hop_c, n)])
        else:
            assert poly_value(hop_c, 0) == 0
        assert out == want


def test_subspace_invariance_exact():
    model = make_model(2, 1, (1, 1, 2), w=[1, Fraction(1, 2), Fraction(-1, 3)],
                       wq={(0, 2): Fraction(1, 5)}, g=Fraction(2, 3))
    sec = sector_from_occupations(model, (2, 1, 4))
    op = expand_diffop(model, sec)
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = Polynomial([Fraction(int(rng.integers(-4, 5))) for _ in range(sec.n_top)] + [1])
        out = apply_to_polynomial(op, psi)
        assert out.degree <= sec.n_top


def test_apply_micro_eigenfunctions():
    op = expand_diffop(MODEL_A, SEC_A)
    plus = Polynomial((1, 1))
    minus = Polynomial((1, -1))
    assert apply_to_polynomial(op, plus) == plus
    assert apply_to_polynomial(op, minus) == -1 * minus
    top = Polynomial((0, 1))   # z^N with N=1
    assert apply_to_polynomial(op, top).degree <= 1


def test_apply_rejects_overlarge_degree():
    op = expand_diffop(MODEL_A, SEC_A)
    with pytest.raises(ValueError):
        apply_to_polynomial(op, Polynomial((0, 0, 1)))


def test_order_floor_is_two():
    model = make_model(1, 1, (1, 1), g=1)
    sec = sector_from_occupations(model, (0, 3))
    op = expand_diffop(model, sec)
    assert op.order == 2
    assert not op.p[2]   # no quadratic diagonal, so P_2 is the zero polynomial


def test_monomial_matrix_consistency():
    from multiboson import build_monomial_matrix

    model = make_model(2, 1, (1, 1, 2), w=[Fraction(1, 2), 1, -1],
                       wq={(1, 2): Fraction(3, 4)}, g=2)
    sec = sector_from_occupations(model, (2, 1, 4))
    hop_a, hop_b, hop_c = hop_polynomials(model, sec)
    block = build_monomial_matrix(model, sec)
    for n in range(sec.dim):
        assert block.diag[n] == float(poly_value(hop_b, n))
    for n in range(sec.dim - 1):
        assert block.upper[n] == float(poly_value(hop_a, n))
        assert block.lower[n] == float(poly_value(hop_c, n + 1))


def test_inconsistent_sector_rejected():
    good = SEC_A
    doctored = Sector(q1=good.q1, q2=good.q2, l1=good.l1, l2=good.l2,
                      kappa=good.kappa, t=good.t, dim=good.dim,
                      base_occupations=(1, 1, 1))  # lowering no longer blocked
    with pytest.raises(ValueError):
        expand_diffop(MODEL_A, doctored)


def test_hop_degree_bounds_and_order():
    model = make_model(2, 2, (2, 1, 1, 3), w=[1, 1, 1, 1],
                       wq={(0, 3): Fraction(1, 2)}, g=1)
    sec = sector_from_occupations(model, (4, 2, 3, 6))
    hop_a, hop_b, hop_c = hop_polynomials(model, sec)
    assert len(hop_c) - 1 == 2 + 1        # sum of creation-group powers
    assert len(hop_a) - 1 == 1 + 3        # sum of annihilation-group powers
    assert len(hop_b) - 1 <= 2
    op = expand_diffop(model, sec)
    assert op.order == max(3, 4, 2)
    assert len(op.p) == op.order + 1
    for i in range(1, op.order + 1):
        assert op.p[i].degree <= i + 1
