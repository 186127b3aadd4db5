"""Single-variable differential-operator form of a sector Hamiltonian.

On the monomial basis {1, z, ..., z^N} of one sector the Hamiltonian acts
as a three-term recurrence

    H z^n = A(n) z^{n+1} + B(n) z^n + C(n) z^{n-1},

with hop polynomials A, B, C in the level index n.  Rewriting each hop
polynomial in the falling-factorial basis turns H into an explicit
differential operator  H = sum_i P_i(z) (d/dz)^i + P_0(z)  of order
M = max(sum k_i over group 1, sum k_i over group 2, 2).  Quasi-exact
solvability is the pair of exact zeros A(N) = 0 and C(0) = 0, which trap
the polynomial subspace of degree <= N.

The expanded polynomials (`hop_coefficients`) serve only to build the
P_i.  Every value at a level n = 0..N -- the monomial block, the
recurrences and the closed-form energy -- comes from `hop_values`, which
reads the products of falling factorials straight off the occupations.

Coefficients stay exact rationals whenever the model couplings are
rational; float couplings flow through the identical code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fock import ModelSpec, Sector, occupations_at


def _exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class Polynomial:
    """Dense univariate polynomial, ascending coefficients.

    Trailing coefficients that compare equal to zero are trimmed, so the
    degree is well defined and the zero polynomial has an empty
    coefficient tuple (degree -1).  Coefficients may be int, Fraction,
    float, or complex; arithmetic follows Python's numeric promotion.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return len(self.coeffs) == len(other.coeffs) and all(
                a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return Polynomial([other * c for c in self.coeffs])

    def derivative(self, order: int = 1) -> "Polynomial":
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(i * c for i, c in enumerate(cs))[1:]
        return Polynomial(cs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def falling_factorial_coefficients(poly: Polynomial) -> tuple:
    """Coefficients c_i with poly(n) = sum_i c_i * n(n-1)...(n-i+1).

    Computed via forward differences at n = 0, 1, 2, ...: c_i equals the
    i-th difference divided by i!, exactly when the coefficients are
    exact.
    """
    d = poly.degree
    if d < 0:
        return ()
    row = [poly(n) for n in range(d + 1)]
    out = []
    for i in range(d + 1):
        head = row[0]
        fact = math.factorial(i)
        if _exact(head):
            c = Fraction(head, fact)
            out.append(int(c) if c.denominator == 1 else c)
        else:
            out.append(head / fact)
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
    return tuple(out)


def _mode_occupation_poly(model: ModelSpec, sector: Sector, i: int) -> Polynomial:
    """m_i(n) as a polynomial in the level index n."""
    b = sector.base_occupations[i]
    step = model.k[i] if i < model.r else -model.k[i]
    return Polynomial((b, step))


def hop_coefficients(model: ModelSpec, sector: Sector):
    """Hop polynomials (A, B, C) of the three-term action H z^n.

    A(n) collects the annihilation-group falling factorials (the z^{n+1}
    part), C(n) the creation-group ones (z^{n-1}), and B(n) is the
    diagonal energy sum over occupations at level n.  A(N) and C(0) vanish
    identically: an exact integer zero factor, not a cancellation.  The
    polynomials build the P_i of `expand_diffop`; values at the levels
    come from `hop_values`.
    """
    hop_a = Polynomial((1,))
    for i in model.group2:
        m = _mode_occupation_poly(model, sector, i)
        for d in range(model.k[i]):
            hop_a = hop_a * (m - Polynomial((d,)))
    hop_a = model.g * hop_a

    hop_c = Polynomial((1,))
    for i in model.group1:
        m = _mode_occupation_poly(model, sector, i)
        for d in range(model.k[i]):
            hop_c = hop_c * (m - Polynomial((d,)))
    hop_c = model.g * hop_c

    hop_b = Polynomial()
    occ = [_mode_occupation_poly(model, sector, i) for i in range(model.n_modes)]
    for i in range(model.n_modes):
        hop_b = hop_b + model.w[i] * occ[i]
    for i in range(model.n_modes):
        for j in range(i, model.n_modes):
            wij = model.wq[i][j]
            if wij != 0:
                hop_b = hop_b + wij * (occ[i] * occ[j])
    return hop_a, hop_b, hop_c


def _number_energy(model: ModelSpec, occ):
    """Diagonal energy sum_i w_i m_i + sum_{i<=j} w_ij m_i m_j of one state.

    Exact for exact couplings.  The terms are added left to right in this
    order (w_i m_i first, then w_ij m_i m_j), which fixes the float sum.
    """
    e = 0
    for i in range(model.n_modes):
        e += model.w[i] * occ[i]
    for i in range(model.n_modes):
        for j in range(i, model.n_modes):
            wij = model.wq[i][j]
            if wij != 0:
                e += wij * occ[i] * occ[j]
    return e


def hop_values(model: ModelSpec, sector: Sector):
    """Hop values (A(0..N-1), B(0..N), C(1..N)) at the sector's levels.

    Read from the occupations, not from the expanded polynomials:
    A(n) = g * prod_{i in group 2} m_i (m_i - 1) ... (m_i - k_i + 1) at
    level n, and C(n) is the same product over group 1.  Each product is
    an exact integer, multiplied by g once, so a float g rounds it once
    and no sum can cancel near the exact zeros A(N) = C(0) = 0.  B(n) is
    `_number_energy` at level n.
    """
    levels = [occupations_at(model, sector, n) for n in range(sector.n_top + 1)]

    def hops(group, states):
        return tuple(model.g * math.prod(occ[i] - d for i in group for d in range(model.k[i]))
                     for occ in states)

    return (hops(model.group2, levels[:-1]),
            tuple(_number_energy(model, occ) for occ in levels),
            hops(model.group1, levels[1:]))


@dataclass(frozen=True)
class DiffOpForm:
    """Expanded operator sum_i p[i] (d/dz)^i acting on degree <= n_top.

    `order` is M = max(sum k over each group, 2); entries of `p` may be
    zero polynomials (e.g. P_2 when the diagonal is linear).  `hop_values`
    holds the sector's (A, B, C) values from `hop_values`: the recurrences
    and the closed-form energy read them, never the expanded polynomials.
    """

    order: int
    p: tuple
    hop_values: tuple
    n_top: int


def expand_diffop(model: ModelSpec, sector: Sector) -> DiffOpForm:
    """Expand the hop form into explicit polynomials P_0(z) ... P_M(z).

    Writing each hop polynomial in the falling-factorial basis, the
    coefficient c_i of n(n-1)...(n-i+1) lands in P_i: on z^{i+1} for the
    raising part, z^i for the diagonal, z^{i-1} for the lowering part.
    The lowering part has no i = 0 term because C(0) = 0 exactly.
    """
    hop_a, hop_b, hop_c = hop_coefficients(model, sector)
    order = max(sum(model.k[i] for i in model.group1),
                sum(model.k[i] for i in model.group2), 2)
    grids = [[0] * (i + 2) for i in range(order + 1)]
    for i, c in enumerate(falling_factorial_coefficients(hop_a)):
        grids[i][i + 1] = grids[i][i + 1] + c
    for i, c in enumerate(falling_factorial_coefficients(hop_b)):
        grids[i][i] = grids[i][i] + c
    cs = falling_factorial_coefficients(hop_c)
    if cs and cs[0] != 0:
        raise ValueError("lowering part carries a 1/z term: sector is inconsistent")
    for i, c in enumerate(cs):
        if i > 0:
            grids[i][i - 1] = grids[i][i - 1] + c
    return DiffOpForm(order=order, p=tuple(Polynomial(gr) for gr in grids),
                      hop_values=hop_values(model, sector), n_top=sector.n_top)


def apply_to_polynomial(op: DiffOpForm, psi: Polynomial) -> Polynomial:
    """(H psi)(z) for a polynomial psi with deg psi <= n_top."""
    if psi.degree > op.n_top:
        raise ValueError(f"deg psi = {psi.degree} exceeds invariant subspace bound {op.n_top}")
    out = op.p[0] * psi
    for i in range(1, op.order + 1):
        if op.p[i]:
            out = out + op.p[i] * psi.derivative(i)
    if out.degree > op.n_top + op.order:
        raise RuntimeError("operator application overflowed its degree bound")
    return out
