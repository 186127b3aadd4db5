"""Polynomial deformations of sl(2) and their boson realizations.

For each power k >= 1 the k-th-power ladder operators

    Q+ = (a^†)^k / sqrt(k)^k,   Q- = a^k / sqrt(k)^k,   Q0 = (N + 1/k)/k

close a deformed algebra  [Q0, Q+-] = +-Q+-,
[Q+, Q-] = phi(Q0) - phi(Q0 - 1)  with a degree-k structure polynomial phi
and a Casimir that is constant on each occupation tower.  This module
builds truncated matrix realizations, evaluates phi and the Casimir in
exact rational arithmetic, verifies the algebra relations, and computes
the ladder coefficients of the finite-dimensional representation carried
by one Hamiltonian sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import ModelSpec, Sector, base_number_values, occupations_at
from .hamiltonian import _sqrt_product, transition_element

# Largest float error the truncated-matrix identities may show.
_ALGEBRA_TOL = 1e-12


def casimir_value(k: int) -> Fraction:
    """Casimir eigenvalue shared by all occupation towers of power k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    prod = Fraction(1)
    for j in range(1, k + 1):
        prod *= Fraction(j - k, k) - Fraction(1, k * k)
    return prod


def phi_polynomial(k: int, x):
    """Structure polynomial phi evaluated at x.

    phi(x) = -prod_{i=1..k} (x + (i*k - 1)/k**2) + casimir_value(k);
    exact when x is an int or Fraction, float otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    prod = 1
    for i in range(1, k + 1):
        prod = prod * (x + Fraction(i * k - 1, k * k))
    return casimir_value(k) - prod


@dataclass(frozen=True)
class TruncatedGeneratorSet:
    """Dense matrices of Q+, Q-, Q0 on the first `trunc` boson levels."""

    k: int
    trunc: int
    qplus: np.ndarray
    qminus: np.ndarray
    qzero: np.ndarray


def boson_generators(k: int, trunc: int) -> TruncatedGeneratorSet:
    """Truncated matrix realization of the power-k generators.

    qplus carries sqrt((m+1)...(m+k))/sqrt(k)^k on the k-th subdiagonal,
    qminus is its transpose, qzero is diagonal with (m + 1/k)/k.
    """
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    qplus = np.zeros((trunc, trunc))
    norm = float(k) ** (k / 2.0)
    for m in range(trunc - k):
        qplus[m + k, m] = _sqrt_product(range(m + 1, m + k + 1)) / norm
    qzero = np.diag([(m + 1.0 / k) / k for m in range(trunc)])
    return TruncatedGeneratorSet(k=k, trunc=trunc, qplus=qplus,
                                 qminus=qplus.T.copy(), qzero=qzero)


@dataclass(frozen=True)
class AlgebraCheck:
    """One algebra identity: its largest error (inf where an exact check
    fails) and whether it is within tolerance."""

    name: str
    max_error: float
    passed: bool


@dataclass(frozen=True)
class AlgebraReport:
    """The identity checks of power `k` on the first `trunc` boson levels."""

    k: int
    trunc: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_single_mode_algebra(k: int, trunc: int | None = None) -> AlgebraReport:
    """Check the defining relations of the power-k algebra.

    Matrix identities are verified on basis states with occupation
    m <= trunc - 2k; the excluded top window is where truncation breaks
    the products, not a tolerance fudge.  `trunc` defaults to 6k and must
    be at least 3k.  The float checks pass within a fixed 1e-12
    (`_ALGEBRA_TOL`).  Ladder and closure relations are additionally
    recomputed in exact rational arithmetic (the commutators are diagonal
    with rational entries), so "exact" checks carry error 0.0 or fail
    outright.
    """
    if trunc is None:
        trunc = 6 * k
    if trunc < 3 * k:
        raise ValueError("trunc too small to leave interior states")
    gen = boson_generators(k, trunc)
    interior = trunc - 2 * k + 1  # states m = 0 .. trunc - 2k

    qp, qm, q0 = gen.qplus, gen.qminus, gen.qzero
    checks = []

    comm_0p = q0 @ qp - qp @ q0
    comm_0m = q0 @ qm - qm @ q0
    err_p = float(np.max(np.abs((comm_0p - qp)[:, :interior])))
    err_m = float(np.max(np.abs((comm_0m + qm)[:, :interior])))
    checks.append(AlgebraCheck("ladder-plus", err_p, err_p <= _ALGEBRA_TOL))
    checks.append(AlgebraCheck("ladder-minus", err_m, err_m <= _ALGEBRA_TOL))

    diag_m = [(m + Fraction(1, k)) / k for m in range(trunc)]
    rhs = np.diag([float(phi_polynomial(k, x) - phi_polynomial(k, x - 1)) for x in diag_m])
    comm_pm = qp @ qm - qm @ qp
    err_c = float(np.max(np.abs((comm_pm - rhs)[:, :interior])))
    checks.append(AlgebraCheck("closure", err_c, err_c <= _ALGEBRA_TOL))

    cas = float(casimir_value(k))
    err_cas = float(np.max(np.abs((qm @ qp + np.diag([float(phi_polynomial(k, x)) for x in diag_m])
                                   - cas * np.eye(trunc))[:, :interior])))
    checks.append(AlgebraCheck("casimir", err_cas, err_cas <= _ALGEBRA_TOL))

    # Exact rational recomputation: both commutators are diagonal, so the
    # square roots cancel pairwise and everything reduces to integer
    # falling/rising factorials over k**k.
    exact_ok = True
    for m in range(interior):
        ff = 1
        for i in range(k):
            ff *= m - i  # hits an exact zero factor whenever m < k
        rf = 1
        for i in range(1, k + 1):
            rf *= m + i
        lhs = Fraction(ff - rf, k ** k)
        x = diag_m[m]
        if lhs != phi_polynomial(k, x) - phi_polynomial(k, x - 1):
            exact_ok = False
        if Fraction(rf, k ** k) + phi_polynomial(k, x) != casimir_value(k):
            exact_ok = False
    checks.append(AlgebraCheck("closure-exact", 0.0 if exact_ok else math.inf, exact_ok))

    # phi is degree k with leading coefficient -1: exact finite differences.
    vals = [phi_polynomial(k, Fraction(n)) for n in range(k + 2)]
    for order in range(1, k + 1):
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    lead_ok = (vals[0] == -math.factorial(k)) and (vals[1] - vals[0] == 0)
    checks.append(AlgebraCheck("phi-degree", 0.0 if lead_ok else math.inf, lead_ok))

    return AlgebraReport(k=k, trunc=trunc, checks=tuple(checks))


@dataclass(frozen=True)
class LadderCoefficients:
    """Matrix elements of the sector representation.

    diag[n] = <n|P0|n>; up[i] = <i+1|P+|i> and down[i] = <i|P-|i+1>, both
    of length N, computed through independent product formulas (raising
    vs. lowering).  Unitarity makes the two integer products equal, and
    both take the one square root `hamiltonian._sqrt_product`, so up and
    down are equal bit for bit.
    """

    diag: np.ndarray
    up: np.ndarray
    down: np.ndarray


def _k_norm(model: ModelSpec) -> int:
    out = 1
    for ki in model.k:
        out *= ki ** ki
    return out


def raising_amplitude(model: ModelSpec, sector: Sector, n: int) -> float:
    """<n+1|P+|n>: the Fock transition element over sqrt(prod_i k_i^k_i)."""
    occ = occupations_at(model, sector, n)
    return transition_element(model, occ) / math.sqrt(_k_norm(model))


def lowering_amplitude(model: ModelSpec, sector: Sector, n: int) -> float:
    """<n-1|P-|n>: the mirrored double product; vanishes identically at n=0."""
    occ = occupations_at(model, sector, n)
    factors = [occ[i] - j for i in model.group1 for j in range(model.k[i])]
    factors += [occ[i] + j for i in model.group2 for j in range(1, model.k[i] + 1)]
    return _sqrt_product(factors) / math.sqrt(_k_norm(model))


def ladder_coefficients(model: ModelSpec, sector: Sector) -> LadderCoefficients:
    """Representation matrix elements of P0 and P+- on one sector."""
    base = base_number_values(model, sector)
    mean1 = Fraction(sum(base[: model.r], Fraction(0)), model.r)
    n_top = sector.n_top
    diag = np.array([float(mean1 + n - sector.kappa) for n in range(n_top + 1)])
    up = np.array([raising_amplitude(model, sector, n) for n in range(n_top)])
    down = np.array([lowering_amplitude(model, sector, n + 1) for n in range(n_top)])
    return LadderCoefficients(diag=diag, up=up, down=down)
