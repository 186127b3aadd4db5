"""Sector labeling and enumeration against brute-force state graphs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiboson import (label_t, make_model, occupations_at, q_from_occupation,
                        sector_from_occupations)
from oracles import bfs_sector_states, lower_move, occupations_below, tower_level


def test_q_from_occupation_k1_is_trivial():
    lab = q_from_occupation(1, 7)
    assert lab.q == 1 and lab.n == 7


@pytest.mark.parametrize("k,m", [(2, 5), (3, 4)])
def test_q_from_occupation_matches_tower_enumeration(k, m):
    lab = q_from_occupation(k, m)
    assert lab.n == tower_level(k, m)
    assert lab.q == Fraction((m % k) * k + 1, k * k)


def test_examples_frozen_values():
    assert q_from_occupation(2, 5) == q_from_occupation(2, 5).__class__(Fraction(3, 4), 2)
    assert q_from_occupation(3, 4).q == Fraction(4, 9)
    assert q_from_occupation(3, 4).n == 1


def test_round_trip_identity():
    for k in range(1, 6):
        for m in range(0, 12 * k):
            lab = q_from_occupation(k, m)
            assert lab.occupation(k) == m


def test_input_validation():
    with pytest.raises(ValueError):
        q_from_occupation(0, 3)
    with pytest.raises(ValueError):
        q_from_occupation(2, -1)


MODEL_B = make_model(2, 1, (1, 1, 2), g=1)


def test_sector_example_mixed_powers():
    sec = sector_from_occupations(MODEL_B, (2, 1, 4))
    assert sec.q1 == (1, 1)
    assert sec.q2 == (Fraction(1, 4),)
    assert sec.l1 == (1,)
    assert sec.kappa == Fraction(19, 8)
    assert sec.t == Fraction(1, 2)
    assert sec.dim == 4
    assert sec.base_occupations == (1, 0, 6)
    assert label_t(sec) == sec.t


def test_sector_example_single_step():
    model = make_model(2, 1, (1, 1, 1), g=1)
    sec = sector_from_occupations(model, (0, 0, 1))
    assert sec.dim == 2
    assert sec.base_occupations == (0, 0, 1)


def test_sector_example_two_annihilation_modes():
    model = make_model(2, 2, (1, 1, 1, 1), g=1)
    sec = sector_from_occupations(model, (1, 1, 0, 0))
    assert sec.dim == 2
    assert sec.base_occupations == (0, 0, 1, 1)
    # the anchor graph has exactly these two states
    assert bfs_sector_states(model, (1, 1, 0, 0)) == {(1, 1, 0, 0), (0, 0, 1, 1)}


def test_occupations_at_examples():
    sec = sector_from_occupations(MODEL_B, (2, 1, 4))
    assert occupations_at(MODEL_B, sec, 0) == (1, 0, 6)
    assert occupations_at(MODEL_B, sec, 1) == (2, 1, 4)
    assert occupations_at(MODEL_B, sec, 3) == (4, 3, 0)
    with pytest.raises(ValueError):
        occupations_at(MODEL_B, sec, 4)
    with pytest.raises(ValueError):
        occupations_at(MODEL_B, sec, -1)


def test_occupations_round_trip_sector():
    sec = sector_from_occupations(MODEL_B, (2, 1, 4))
    for n in range(sec.dim):
        assert sector_from_occupations(MODEL_B, occupations_at(MODEL_B, sec, n)) == sec


def test_sector_closure_steps():
    model = make_model(2, 2, (2, 1, 3, 1), g=1)
    sec = sector_from_occupations(model, (4, 2, 9, 3))
    step = (+2, +1, -3, -1)
    for n in range(sec.dim - 1):
        a = occupations_at(model, sec, n)
        b = occupations_at(model, sec, n + 1)
        assert tuple(y - x for x, y in zip(a, b)) == step


@pytest.mark.parametrize("rska,anchor", [
    ((2, 1, (1, 1, 1)), (2, 1, 4)),
    ((2, 1, (1, 1, 2)), (2, 1, 4)),
    ((2, 1, (1, 1, 1)), (0, 5, 3)),   # mode 1, not mode r, pins the base state
    ((2, 2, (1, 2, 2, 1)), (3, 4, 6, 2)),
    ((1, 3, (2, 1, 1, 3)), (5, 2, 2, 7)),
    ((3, 1, (1, 1, 1, 2)), (1, 4, 2, 9)),
])
def test_dimension_matches_state_graph(rska, anchor):
    r, s, k = rska
    model = make_model(r, s, k, g=1)
    sec = sector_from_occupations(model, anchor)
    states = bfs_sector_states(model, anchor)
    assert sec.dim == len(states)
    assert set(occupations_at(model, sec, n) for n in range(sec.dim)) == states


def test_base_state_is_annihilated_by_lowering():
    for anchor in [(2, 1, 4), (0, 5, 3), (7, 3, 1)]:
        model = make_model(2, 1, (1, 1, 2), g=1)
        sec = sector_from_occupations(model, anchor)
        assert lower_move(model, sec.base_occupations) is None


def test_partition_every_state_in_exactly_one_sector():
    model = make_model(2, 1, (1, 1, 2), g=1)
    for occ in occupations_below(3, 8):
        sec = sector_from_occupations(model, occ)
        orbit = [occupations_at(model, sec, n) for n in range(sec.dim)]
        assert orbit.count(occ) == 1
        for state in orbit:
            assert sector_from_occupations(model, state) == sec


@st.composite
def _models_and_occupations(draw):
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(1, 3), min_size=r + s, max_size=r + s))
    occ = draw(st.lists(st.integers(0, 8), min_size=r + s, max_size=r + s))
    return make_model(r, s, k, g=1), tuple(occ)


@settings(max_examples=100, deadline=None)
@given(case=_models_and_occupations())
def test_sector_map_is_total(case):
    """Every occupation vector lies in exactly one sector: it appears once
    in its sector's orbit, and every orbit state maps back to that sector."""
    model, occ = case
    sec = sector_from_occupations(model, occ)
    orbit = [occupations_at(model, sec, n) for n in range(sec.dim)]
    assert orbit.count(occ) == 1
    for state in orbit:
        assert sector_from_occupations(model, state) == sec


def test_label_t_detects_nonreference_anchors():
    model = make_model(2, 1, (1, 1, 1), g=1)
    ref = sector_from_occupations(model, (5, 0, 3))
    assert label_t(ref) == ref.t
    off = sector_from_occupations(model, (0, 5, 3))
    assert label_t(off) != off.t
    assert off.dim == 4  # physical count, not the label formula value


def test_sector_equality_is_by_labels_only():
    sec_a = sector_from_occupations(MODEL_B, (2, 1, 4))
    sec_b = sector_from_occupations(MODEL_B, (1, 0, 6))
    assert sec_a == sec_b and hash(sec_a) == hash(sec_b)
    other = sector_from_occupations(MODEL_B, (2, 1, 5))
    assert sec_a != other


def test_model_validation():
    with pytest.raises(ValueError):
        make_model(0, 1, (1,))
    with pytest.raises(ValueError):
        make_model(1, 1, (1, 0))
    with pytest.raises(ValueError):
        make_model(1, 1, (1, 1), w=[1])
    with pytest.raises(ValueError):
        sector_from_occupations(MODEL_B, (1, 2))
    with pytest.raises(ValueError):
        sector_from_occupations(MODEL_B, (1, 2, -1))


@pytest.mark.parametrize("k", [(1.5, 1, 1), (Fraction(3, 2), 1, 1), (1, float("nan"), 1),
                               (1, 1, float("inf"))])
def test_make_model_rejects_non_integral_powers(k):
    """A non-integral power is an error, never truncated to k=(1, 1, 1)."""
    with pytest.raises(ValueError, match="k must be integers"):
        make_model(2, 1, k, g=1)


@pytest.mark.parametrize("couplings", [{"g": float("inf")}, {"w": [0, float("nan"), 0]},
                                       {"wq": {(0, 2): -float("inf")}}])
def test_make_model_rejects_non_finite_couplings(couplings):
    """A non-finite coupling defines no Hamiltonian; the operator's exact
    coefficient sums have no value for it."""
    with pytest.raises(ValueError, match="couplings must be finite"):
        make_model(2, 1, (1, 1, 1), **couplings)


def test_make_model_keeps_integral_powers_of_any_type():
    k = make_model(2, 1, (2.0, Fraction(3), 1), g=1).k
    assert k == (2, 3, 1) and all(type(ki) is int for ki in k)


@pytest.mark.parametrize("key", [(-1, -1), (0, -1), (3, 3), (1, 3), (3, 0)])
def test_make_model_rejects_quadratic_keys_out_of_range(key):
    """A w_ij key with a mode index outside 0..r+s-1 is an error: a
    negative index once wrapped round to the last mode, a large one raised
    a bare IndexError.  So is a non-integral index, which raised a
    TypeError; an integral one of any type is kept."""
    with pytest.raises(ValueError, match=r"wq key .* out of range"):
        make_model(2, 1, (1, 1, 1), wq={key: 0.5}, g=1)
    with pytest.raises(ValueError, match="wq mode indices must be integers"):
        make_model(2, 1, (1, 1, 1), wq={(0.5, 1): 0.5}, g=1)
    assert make_model(2, 1, (1, 1, 1), wq={(2.0, 2): 0.5, (1, 0): 0.25}, g=1).wq == (
        (0, 0.25, 0), (0, 0, 0), (0, 0, 0.5))


@pytest.mark.parametrize("occ", [(0.9, 0, 3.7), (0, 0, 3.5), (Fraction(1, 2), 0, 3),
                                 (0, float("nan"), 3), (0, 0, None)])
def test_sector_rejects_non_integral_occupations(occ):
    """A non-integral occupation is an error, never truncated: (0.9, 0, 3.7)
    once gave the sector of (0, 0, 3).  Integral values of any type are
    kept."""
    with pytest.raises(ValueError, match="occupations must be integers"):
        sector_from_occupations(MODEL_B, occ)
    assert sector_from_occupations(MODEL_B, (2.0, Fraction(1), 4)) == sector_from_occupations(
        MODEL_B, (2, 1, 4))


def test_mode_q_values_in_allowed_set():
    from oracles import allowed_q_values

    for k in range(1, 5):
        seen = {q_from_occupation(k, m).q for m in range(6 * k)}
        assert seen == set(allowed_q_values(k))
