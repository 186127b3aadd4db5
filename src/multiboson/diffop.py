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

Every hop term is a coupling times an integer product of the occupations
m_i(n): A(n) = g * prod_{i in group 2} m_i (m_i - 1) ... (m_i - k_i + 1),
C(n) the same product over group 1, and B(n) = sum_i w_i m_i +
sum_{i<=j} w_ij m_i m_j.  `_hop_factors` reads the integer products off
the occupations once.  `hop_values` multiplies them by the couplings at
the levels n = 0..N; the P_i take exact forward differences of them
first (B's with the couplings scaled to integers), so each operator
coefficient is exact up to the rounding of its last product or quotient.

Coefficients stay exact rationals whenever the model couplings are
rational; float couplings flow through the identical code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fock import ModelSpec, Sector, _occupations


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


def _differences(values) -> list:
    """c_i = (Delta^i f)(0) / i! for f(n) = values[n], n = 0, 1, ...: the
    falling-factorial coefficients of f, exact when the values are."""
    out, row = [], list(values)
    for i in range(len(row)):
        head, fact = row[0], math.factorial(i)
        if not _exact(head):
            out.append(head / fact)
        else:
            out.append(head // fact if head % fact == 0 else Fraction(head, fact))
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def falling_factorial_coefficients(poly: Polynomial) -> tuple:
    """Coefficients c_i with poly(n) = sum_i c_i * n(n-1)...(n-i+1), from
    the forward differences of poly at n = 0 .. deg poly."""
    return tuple(_differences([poly(n) for n in range(poly.degree + 1)]))


def _number_terms(model: ModelSpec) -> list:
    """B's terms (coupling, modes) in summation order: w_i m_i for every
    mode, then w_ij m_i m_j for each nonzero w_ij, i <= j."""
    n = model.n_modes
    return ([(model.w[i], (i,)) for i in range(n)]
            + [(model.wq[i][j], (i, j)) for i in range(n) for j in range(i, n)
               if model.wq[i][j] != 0])


def _number_energy(terms, occ):
    """B = sum_i w_i m_i + sum_{i<=j} w_ij m_i m_j of one state, exact for
    exact couplings.  Each term multiplies its coupling by the occupations
    left to right, and the terms add in order: that fixes the float sum."""
    e = 0
    for x, modes in terms:
        for i in modes:
            x = x * occ[i]
        e += x
    return e


def _hop_factors(model: ModelSpec, sector: Sector) -> tuple:
    """The sector's hop table, read off the occupations once: the order M,
    the rows m(n) for n = 0 .. max(M, N) (past N they continue as
    polynomials in n), the integer products A(n)/g and C(n)/g at those
    rows, and the level values of `hop_values`, in that order."""
    order = max(sum(model.k[i] for i in model.group1),
                sum(model.k[i] for i in model.group2), 2)
    n_top = sector.n_top
    rows = tuple(_occupations(model, sector, n) for n in range(max(order, n_top) + 1))

    def falling(group):
        return tuple(math.prod(occ[i] - d for i in group for d in range(model.k[i]))
                     for occ in rows)

    hop_a, hop_c, terms = falling(model.group2), falling(model.group1), _number_terms(model)
    values = (tuple(model.g * x for x in hop_a[:n_top]),
              tuple(_number_energy(terms, occ) for occ in rows[:n_top + 1]),
              tuple(model.g * x for x in hop_c[1:n_top + 1]))
    return order, rows, hop_a, hop_c, values


_last_table = (None, None, None)


def _hop_table(model: ModelSpec, sector: Sector) -> tuple:
    """`_hop_factors` of the last (model, sector) pair asked for, kept for
    those objects (both frozen): one sector's operator, monomial block and
    Fock block each read this one table."""
    global _last_table
    last = _last_table
    if last[0] is not model or last[1] is not sector:
        last = _last_table = (model, sector, _hop_factors(model, sector))
    return last[2]


def hop_values(model: ModelSpec, sector: Sector):
    """Hop values (A(0..N-1), B(0..N), C(1..N)) at the sector's levels.

    A(n) and C(n) are g times the integer products of `_hop_factors`, so a
    float g rounds each once and no sum can cancel near the exact zeros
    A(N) = C(0) = 0.  B(n) is `_number_energy` at level n.
    """
    return _hop_table(model, sector)[4]


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
    One `_hop_factors` evaluation at n = 0 .. max(M, N) gives them all, and
    `hop_values` too.  The c_i of A and C are exact integer differences of
    the products, each multiplied by g once.  B's are the exact differences
    of `_number_energy` with the couplings scaled to integers by their
    common denominator, divided by it once.  The lowering part has no i = 0
    term because C(0) = 0 exactly.
    """
    order, rows, hop_a, hop_c, values = _hop_table(model, sector)
    lower = _differences(hop_c[:order + 1])
    if lower[0] != 0:
        raise ValueError("lowering part carries a 1/z term: sector is inconsistent")
    grids = [[0] * (i + 2) for i in range(order + 1)]
    for i, (a, c) in enumerate(zip(_differences(hop_a[:order + 1]), lower)):
        if a:
            grids[i][i + 1] = model.g * a
        if c:
            grids[i][i - 1] = model.g * c
    terms = _number_terms(model)
    ratios = [x.as_integer_ratio() for x, _ in terms]
    den = math.lcm(*(q for _, q in ratios))
    scaled = [(num * (den // q), modes) for (num, q), (_, modes) in zip(ratios, terms)]
    exact = all(_exact(x) for x, _ in terms)
    for i, b in enumerate(_differences([_number_energy(scaled, occ) for occ in rows[:3]])):
        grids[i][i] = Fraction(b, den) if exact else b / den
    return DiffOpForm(order=order, p=tuple(Polynomial(gr) for gr in grids),
                      hop_values=values, n_top=sector.n_top)


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
