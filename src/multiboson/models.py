"""Condensate-model presets and their hand-derived closed-form tables.

Three special cases of the general Hamiltonian family carry independently
tabulated closed forms for the operator polynomials, the root equations,
and the energies:

* case A -- hetero-atom-molecule conversion, r=2, s=1, k=(1,1,1);
* case B -- three-mode atomic-molecular conversion, r=2, s=1, k=(1,1,2);
* case C -- four-mode atom-molecule conversion, r=2, s=2, k=(1,1,1,1).

The tables are evaluated verbatim and diffed against the general
expansion, which is never special-cased per model, so these fixtures
genuinely exercise the generic machinery.  A few table entries are known
to disagree with the general expansion (and with direct diagonalization,
which sides with the expansion); those are registered in
``KNOWN_DISCREPANCIES`` together with their exact deltas so a regression
run can tell an expected table-side error from a real defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bethe import bethe_residuals, energy_from_roots
from .diffop import Polynomial, expand_diffop
from .fock import (PRESET_SHAPES, ModelSpec, Sector, label_t, make_model,
                   sector_from_occupations)

# Agreement of the tabulated root-equation form with the derivative-based
# residuals, relative to max(1, max |residual|).
_BAE_TOL = 1e-10


def preset(case: str, w=None, wq=None, g=0) -> ModelSpec:
    """ModelSpec for one of the tabulated cases A, B, C."""
    if case not in PRESET_SHAPES:
        raise ValueError(f"unknown preset {case!r}; expected one of {sorted(PRESET_SHAPES)}")
    r, s, k = PRESET_SHAPES[case]
    return make_model(r, s, k, w=w, wq=wq, g=g)


def _case_of(model: ModelSpec) -> str:
    for case, (r, s, k) in PRESET_SHAPES.items():
        if (model.r, model.s, model.k) == (r, s, k):
            return case
    raise ValueError("model does not match any tabulated preset")


def _require_reference_labels(sector: Sector):
    if sector.t != label_t(sector):
        raise ValueError("sector labels do not satisfy the closed-form table assumptions "
                         "(last mode of each group must pin the sector boundary)")


def tabulated_coefficients(case: str, model: ModelSpec, sector: Sector) -> dict:
    """Closed-form coefficient values, evaluated exactly as tabulated.

    Exact arithmetic whenever the couplings are exact.  The returned dict
    is keyed by the table symbols (A11, B11, A21, ... G22).
    """
    if _case_of(model) != case:
        raise ValueError(f"model shape does not match case {case}")
    _require_reference_labels(sector)
    w = model.w
    q = model.quadratic
    kap = sector.kappa
    n_top = sector.n_top

    if case == "A":
        l1 = sector.l1[0]
        return {
            "A11": q(0, 0) + q(1, 1) + q(2, 2) + q(0, 1) - q(0, 2) - q(1, 2),
            "B11": (w[0] - w[2] + w[1] + q(1, 1) + q(0, 0) * (2 * l1 + 1)
                    + q(2, 2) * (5 + l1 - 4 * kap)),
        }
    if case == "B":
        l1 = sector.l1[0]
        return {
            "A21": q(0, 0) + q(1, 1) - 2 * q(1, 2) + 4 * q(2, 2) - 2 * q(0, 2) + q(0, 1),
            "B21": 4 * model.g * (4 + l1 - 4 * kap),
            "D21": (w[1] + w[0] + q(1, 1) + q(0, 1) * (l1 + 1) - 2 * w[2]
                    + q(2, 2) * (14 + 4 * l1 - 16 * kap)
                    + q(0, 0) * (2 * l1 + 1)
                    + q(0, 2) * (4 * kap - Fraction(9, 2) - 3 * l1)
                    + q(1, 2) * (4 * kap - Fraction(9, 2) - l1)),
            "F21": model.g * ((4 * kap - 2 - l1) * (4 * kap - 4 - l1) + Fraction(3, 4)),
            "G21": (w[0] * l1 + w[2] * (4 * kap - Fraction(5, 2) - l1)
                    + q(0, 2) * l1 * (4 * kap - l1 - Fraction(5, 2))
                    + q(0, 0) * l1 * l1
                    + q(2, 2) * (4 * kap - l1 - Fraction(5, 2)) ** 2),
        }
    # case C
    l1, l3 = sector.l1[0], sector.l2[0]
    return {
        "A22": (q(0, 0) + q(2, 2) + q(1, 1) - q(1, 3) - q(0, 2) + q(0, 1)
                - q(1, 2) + q(3, 3) - q(0, 3) + q(2, 3)),
        "B22": model.g * (l1 + 5 - 4 * kap),
        "D22": (w[0] + w[1] - w[3] - w[2] + q(1, 1)
                + q(2, 2) * (1 - 2 * l3 - 2 * n_top)
                + q(0, 0) * (2 * l1 + 1)
                + q(0, 1) * (1 + l1)
                + q(1, 2) * (n_top + l3 - 1)
                + q(0, 2) * (n_top + l3 - l1 - 1)
                + q(0, 3) * (n_top - l1 - 1)
                + q(3, 3) * (1 - 2 * n_top)
                + q(2, 3) * (1 - l3 - 2 * n_top)
                + q(1, 3) * n_top),
        "G22": (w[0] * l1 + w[2] * (n_top + l3) + w[3] * n_top
                + q(2, 2) * (n_top + l3) ** 2 + q(2, 3) * n_top * (n_top + l3)
                + q(0, 0) * l1 * l1 + q(0, 3) * l1 * n_top + q(3, 3) * n_top ** 2
                + q(0, 2) * l1 * (n_top + l3)),
    }


def tabulated_operator_polys(case: str, model: ModelSpec, sector: Sector) -> tuple:
    """(P2, P1, P0) exactly as the tables print them.

    Case A tabulates only P2 and P1 (through its root-equation ratio);
    its P0 slot is returned as None.  Case B's tabulated P0 has no
    constant term -- that omission is one of the registered
    discrepancies.
    """
    coeffs = tabulated_coefficients(case, model, sector)
    g = model.g
    l1 = sector.l1[0]
    if case == "A":
        p2 = Polynomial((0, g, coeffs["A11"]))
        p1 = Polynomial((g * (l1 + 1), coeffs["B11"], -g))
        return p2, p1, None
    if case == "B":
        p2 = Polynomial((0, g, coeffs["A21"], 4 * g))
        p1 = Polynomial((g * (l1 + 1), coeffs["D21"], coeffs["B21"]))
        p0 = Polynomial((0, coeffs["F21"]))
        return p2, p1, p0
    l3 = sector.l2[0]
    n_top = sector.n_top
    p2 = Polynomial((0, g, coeffs["A22"], g))
    p1 = Polynomial((g * (l1 + 1), coeffs["D22"], coeffs["B22"]))
    p0 = Polynomial((coeffs["G22"], g * n_top * (n_top + l3)))
    return p2, p1, p0


def tabulated_bae_residuals(roots, p2: Polynomial, p1: Polynomial) -> np.ndarray:
    """Root-equation residuals in the tabulated two-derivative form.

    Component p is  P1(a_p) + 2 P2(a_p) * sum_{m != p} 1/(a_p - a_m);
    the tabulated equations set this to zero.  The caller supplies the
    coefficient polynomials -- the general expansion's `P_2` and `P_1` in
    `verify_case`, so a registered table typo does not obscure the check
    of the structural form.
    """
    roots = np.asarray(roots, dtype=complex)
    out = np.zeros(roots.size, dtype=complex)
    for p in range(roots.size):
        others = np.delete(roots, p)
        pole_sum = np.sum(1.0 / (roots[p] - others)) if others.size else 0.0
        out[p] = complex(p1(roots[p])) + 2.0 * complex(p2(roots[p])) * pole_sum
    return out


def tabulated_energy(case: str, model: ModelSpec, sector: Sector, roots):
    """Energy evaluated exactly as tabulated (exact for exact inputs)."""
    if _case_of(model) != case:
        raise ValueError(f"model shape does not match case {case}")
    _require_reference_labels(sector)
    w = model.w
    q = model.quadratic
    n_top = sector.n_top
    g = model.g
    ssum = sum(roots, Fraction(0)) if roots else 0
    if case == "A":
        l1 = sector.l1[0]
        return (q(0, 0) * (n_top + l1) ** 2 + q(1, 1) * n_top ** 2
                + w[0] * (n_top + l1) + w[1] * n_top
                + q(0, 1) * n_top * (n_top + l1) - g * ssum)
    if case == "B":
        l1 = sector.l1[0]
        q3 = sector.q2[0]
        return (q(0, 0) * (n_top + l1) ** 2 + q(1, 1) * n_top ** 2
                + 2 * q(2, 2) * (q3 - Fraction(1, 4)) ** 2
                + q(0, 1) * n_top * (n_top + l1)
                + 2 * (q3 - Fraction(1, 4)) * (q(0, 2) * (n_top + l1) + q(1, 2) * n_top + w[2])
                + w[0] * (n_top + l1) + w[1] * n_top
                - 4 * g * (q3 + Fraction(1, 4)) * (q3 + Fraction(3, 4)) * ssum)
    l1, l3 = sector.l1[0], sector.l2[0]
    return (q(0, 0) * (n_top + l1) ** 2 + q(1, 1) * n_top ** 2 + q(2, 2) * l3 ** 2
            + q(0, 1) * n_top * (n_top + l1) + q(0, 2) * l3 * (n_top + l1)
            + (q(1, 2) * l3 + w[1]) * n_top + w[0] * (n_top + l1) + w[2] * l3
            - g * (l3 + 1) * ssum)


@dataclass(frozen=True)
class KnownDiscrepancy:
    """A verified table-side error, with its exact general-minus-table delta."""

    case: str
    item: str
    description: str


KNOWN_DISCREPANCIES = (
    KnownDiscrepancy("A", "B11",
                     "tabulated B11 omits the quadratic cross couplings; the general "
                     "expansion adds w12*(l1+1) + w13*(N-1-l1) + w23*(N-1)"),
    KnownDiscrepancy("B", "P0-constant",
                     "tabulated P0 lists only the linear term F21*z; the general "
                     "expansion carries the constant G21 (the diagonal energy of the "
                     "base state) as well"),
    KnownDiscrepancy("B", "energy-w33",
                     "tabulated energy carries 2*w33*(q3-1/4)^2; the general closed "
                     "form and direct diagonalization give 4*w33*(q3-1/4)^2"),
    KnownDiscrepancy("C", "D22",
                     "tabulated D22 carries w24*N; the general expansion gives "
                     "w24*(N-1)"),
)


def discrepancy_delta(case: str, item: str, model: ModelSpec, sector: Sector):
    """Exact value of (general expansion) - (tabulated form) for a registered item."""
    coeffs = tabulated_coefficients(case, model, sector)
    n_top = sector.n_top
    if (case, item) == ("A", "B11"):
        l1 = sector.l1[0]
        return (model.quadratic(0, 1) * (l1 + 1)
                + model.quadratic(0, 2) * (n_top - 1 - l1)
                + model.quadratic(1, 2) * (n_top - 1))
    if (case, item) == ("B", "P0-constant"):
        return coeffs["G21"]
    if (case, item) == ("B", "energy-w33"):
        q3 = sector.q2[0]
        return 2 * model.quadratic(2, 2) * (q3 - Fraction(1, 4)) ** 2
    if (case, item) == ("C", "D22"):
        return -model.quadratic(1, 3)
    raise KeyError(f"no registered discrepancy ({case}, {item})")


@dataclass(frozen=True)
class FixtureItem:
    """Verdict on one table entry of one draw; `detail` says what differed."""

    draw: int
    name: str
    status: str  # 'match' | 'known-discrepancy' | 'MISMATCH'
    detail: str = ""


@dataclass(frozen=True)
class CaseFixtureReport:
    """Every fixture verdict of one preset over `draws` random draws."""

    case: str
    draws: int
    items: tuple

    @property
    def ok(self) -> bool:
        return all(item.status != "MISMATCH" for item in self.items)

    def counts(self) -> dict:
        out = {"match": 0, "known-discrepancy": 0, "MISMATCH": 0}
        for item in self.items:
            out[item.status] += 1
        return out


def _random_fraction(rng, lo=-6, hi=6, max_den=5) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, max_den + 1)))


def random_case_inputs(case: str, rng):
    """Random exact couplings and a random table-compatible sector anchor."""
    r, s, k = PRESET_SHAPES[case]
    n = r + s
    w = [_random_fraction(rng) for _ in range(n)]
    wq = {(i, j): _random_fraction(rng) for i in range(n) for j in range(i, n)}
    g = Fraction(0)
    while g == 0:
        g = _random_fraction(rng)
    model = preset(case, w=w, wq=wq, g=g)
    n_top = int(rng.integers(1, 7))
    b1 = int(rng.integers(0, 5))
    if case == "A":
        anchor = (b1, 0, n_top)
    elif case == "B":
        anchor = (b1, 0, 2 * n_top + int(rng.integers(0, 2)))
    else:
        l3 = int(rng.integers(0, 5))
        anchor = (b1, 0, n_top + l3, n_top)
    return model, sector_from_occupations(model, anchor)


def _coefficient(op, i, power):
    """The z**power coefficient of the operator polynomial P_i."""
    cs = op.p[i].coeffs
    return cs[power] if power < len(cs) else 0


# where each table symbol lives in the general expansion: (i, power) of P_i
_SYMBOL_SLOTS = {
    "A": {"A11": (2, 2), "B11": (1, 1)},
    "B": {"A21": (2, 2), "B21": (1, 2), "D21": (1, 1), "F21": (0, 1), "G21": (0, 0)},
    "C": {"A22": (2, 2), "B22": (1, 2), "D22": (1, 1), "G22": (0, 0)},
}


def _general_coefficient_map(case: str, op) -> dict:
    """Each table symbol's value in the general expansion."""
    return {name: _coefficient(op, *slot) for name, slot in _SYMBOL_SLOTS[case].items()}


def _structural_checks(case: str, op, model, sector) -> list:
    """Table entries that are plain structure, not named symbols."""
    g = model.g
    l1 = sector.l1[0]
    checks = [("P2-linear", (2, 1), g), ("P1-constant", (1, 0), g * (l1 + 1))]
    if case == "A":
        checks += [("P1-quadratic", (1, 2), -g), ("P2-cubic", (2, 3), 0)]
    elif case == "B":
        checks += [("P2-cubic", (2, 3), 4 * g)]
    else:
        n_top = sector.n_top
        l3 = sector.l2[0]
        checks += [("P2-cubic", (2, 3), g), ("P0-linear", (0, 1), g * n_top * (n_top + l3))]
    return [(name, _coefficient(op, *slot), want) for name, slot, want in checks]


def verify_case(case: str, draws: int = 50, seed: int = 0) -> CaseFixtureReport:
    """Diff the tabulated closed forms against the general machinery.

    For each draw of random exact couplings and a random sector: compare
    every tabulated coefficient with its general-expansion counterpart in
    exact rational arithmetic; check the tabulated root-equation form
    against the derivative-based residuals at random root sets, within a
    fixed 1e-10 of their scale (`_BAE_TOL`); and check the tabulated
    energy against the general closed form with exact rational roots.
    A mismatch is accepted only when it is registered in
    ``KNOWN_DISCREPANCIES`` and equals the registered delta exactly.
    """
    rng = np.random.default_rng(seed)
    registered = {(d.case, d.item) for d in KNOWN_DISCREPANCIES}
    items = []
    for draw in range(draws):
        model, sector = random_case_inputs(case, rng)
        op = expand_diffop(model, sector)
        table = tabulated_coefficients(case, model, sector)
        general = _general_coefficient_map(case, op)

        for name, general_value in general.items():
            tabulated = table[name]
            if general_value == tabulated:
                items.append(FixtureItem(draw, name, "match"))
            elif (case, name) in registered and \
                    general_value - tabulated == discrepancy_delta(case, name, model, sector):
                items.append(FixtureItem(draw, name, "known-discrepancy",
                                         f"delta={general_value - tabulated}"))
            else:
                items.append(FixtureItem(draw, name, "MISMATCH",
                                         f"general={general_value} tabulated={tabulated}"))

        # tabulated P0 versus general P0 (the omission registered for case B)
        if case != "A":
            _, _, p0_tab = tabulated_operator_polys(case, model, sector)
            diff = op.p[0] - p0_tab
            if not diff:
                items.append(FixtureItem(draw, "P0", "match"))
            elif case == "B" and diff == Polynomial((discrepancy_delta("B", "P0-constant",
                                                                       model, sector),)):
                items.append(FixtureItem(draw, "P0", "known-discrepancy",
                                         "general adds the constant G21"))
            else:
                items.append(FixtureItem(draw, "P0", "MISMATCH", f"difference {diff!r}"))

        for name, got, want in _structural_checks(case, op, model, sector):
            items.append(FixtureItem(draw, name, "match" if got == want else "MISMATCH",
                                     "" if got == want else f"general={got} tabulated={want}"))

        # root-equation form at a random distinct complex root set, using
        # general coefficient values so registered coefficient typos do not
        # obscure the structural comparison
        n_roots = sector.n_top
        roots = rng.standard_normal(n_roots) + 1j * rng.standard_normal(n_roots)
        got = tabulated_bae_residuals(roots, op.p[2], op.p[1])
        want = bethe_residuals(op, roots)
        scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
        ok = bool(np.all(np.abs(got - want) <= _BAE_TOL * scale))
        items.append(FixtureItem(draw, "bae-form", "match" if ok else "MISMATCH",
                                 "" if ok else f"max diff {np.max(np.abs(got - want)):.3e}"))

        # tabulated energy versus general closed form, exact rational roots
        exact_roots = tuple(_random_fraction(rng) for _ in range(n_roots))
        e_general = energy_from_roots(model, sector, exact_roots)
        e_table = tabulated_energy(case, model, sector, exact_roots)
        if e_general == e_table:
            items.append(FixtureItem(draw, "energy", "match"))
        elif case == "B" and e_general - e_table == discrepancy_delta(
                "B", "energy-w33", model, sector):
            items.append(FixtureItem(draw, "energy", "known-discrepancy",
                                     f"delta={e_general - e_table}"))
        else:
            items.append(FixtureItem(draw, "energy", "MISMATCH",
                                     f"general={e_general} tabulated={e_table}"))
    return CaseFixtureReport(case=case, draws=draws, items=tuple(items))
