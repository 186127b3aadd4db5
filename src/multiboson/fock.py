"""Sector structure of a multi-mode boson Fock space under a product interaction.

A model couples r "creation-group" modes to s "annihilation-group" modes
through a single interaction term

    g * ( a_1^{† k_1} ... a_r^{† k_r} a_{r+1}^{k_{r+1}} ... a_{r+s}^{k_{r+s}} + h.c. )

on top of arbitrary linear and quadratic number-operator terms.  The
interaction shifts all occupations in lock step (+k_i on the first group,
-k_i on the second, or the reverse), so the Fock space splits into finite
invariant sectors.  This module maps occupation vectors to the exact
rational quantum numbers (q, l, kappa, t) that label those sectors and
enumerates the states of a sector.

All quantum numbers are kept as `fractions.Fraction`; the integrality
constraints that make a sector well formed must hold exactly, never up to
floating-point tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def _as_coupling(x):
    """Keep exact coupling types exact; coerce anything else to a float,
    which must be finite."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"couplings must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of the multi-mode boson Hamiltonian family.

    Attributes
    ----------
    r, s : int
        Number of modes in the creation group (indices 0..r-1) and the
        annihilation group (indices r..r+s-1).
    k : tuple of int
        Interaction powers k_i, one per mode, all >= 1.
    w : tuple
        Linear couplings w_i of the number operators, length r+s.
    wq : tuple of tuple
        Quadratic couplings w_ij for i <= j, stored as a full square
        matrix whose strictly-lower triangle is zero.
    g : int | float | Fraction
        Interaction strength.
    """

    r: int
    s: int
    k: tuple
    w: tuple
    wq: tuple
    g: object

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("r and s must both be >= 1")
        n = self.r + self.s
        if len(self.k) != n:
            raise ValueError(f"k must have length r+s={n}, got {len(self.k)}")
        if any((not isinstance(ki, int)) or ki < 1 for ki in self.k):
            raise ValueError("all interaction powers k_i must be integers >= 1")
        if len(self.w) != n:
            raise ValueError(f"w must have length r+s={n}, got {len(self.w)}")
        if len(self.wq) != n or any(len(row) != n for row in self.wq):
            raise ValueError("wq must be an (r+s) x (r+s) matrix")
        for i in range(n):
            for j in range(i):
                if self.wq[i][j] != 0:
                    raise ValueError("wq must be upper triangular (w_ij stored for i <= j)")

    @property
    def n_modes(self) -> int:
        return self.r + self.s

    @property
    def group1(self) -> range:
        return range(self.r)

    @property
    def group2(self) -> range:
        return range(self.r, self.r + self.s)

    def quadratic(self, i: int, j: int):
        """Coupling w_ij, insensitive to index order."""
        if i > j:
            i, j = j, i
        return self.wq[i][j]


def _as_int(x, what: str) -> int:
    """An integral value (an int, or a float or Fraction equal to one) as an
    int; anything else is rejected, never truncated."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):   # None, text, nan, inf
        pass
    raise ValueError(f"{what} must be integers, got {x!r}")


def make_model(r, s, k, w=None, wq=None, g=0) -> ModelSpec:
    """Build a :class:`ModelSpec`, normalizing coupling containers.

    `k` holds integral values (int, or a float or Fraction equal to one);
    anything else raises ValueError.  `w` may be None (all zero) or a
    sequence of length r+s.  `wq` may be None, a dict keyed by (i, j) with
    0-based integral i <= j, or a full square matrix; a key with an index
    outside 0..r+s-1 raises ValueError.  Exact (int / Fraction) couplings
    are kept exact so downstream polynomial coefficients stay rational; any
    other coupling becomes a float, and a non-finite one raises ValueError.
    """
    n = r + s
    kt = tuple(_as_int(ki, "interaction powers k") for ki in k)
    wt = tuple(_as_coupling(x) for x in (w if w is not None else [0] * n))
    if wq is None:
        rows = [[0] * n for _ in range(n)]
    elif isinstance(wq, dict):
        rows = [[0] * n for _ in range(n)]
        for key, val in wq.items():
            i, j = (_as_int(m, "wq mode indices") for m in key)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"wq key {key!r} is out of range: mode indices run 0..{n - 1}")
            if i > j:
                i, j = j, i
            rows[i][j] = _as_coupling(val)
    else:
        rows = [[_as_coupling(x) for x in row] for row in wq]
    return ModelSpec(r=int(r), s=int(s), k=kt, w=wt,
                     wq=tuple(tuple(row) for row in rows), g=_as_coupling(g))


# (r, s, k) of the three condensate cases whose closed-form tables live in
# `models`; kept here so that naming a preset needs no table module.
PRESET_SHAPES = {
    "A": (2, 1, (1, 1, 1)),
    "B": (2, 1, (1, 1, 2)),
    "C": (2, 2, (1, 1, 1, 1)),
}


@dataclass(frozen=True)
class ModeLabel:
    """Single-mode label (q, n): tower residue q and level index n.

    For interaction power k the occupation m decomposes as m = k*n + j
    with 0 <= j < k, and q = (j*k + 1)/k**2.  The k allowed q values
    enumerate the towers the k-th-power ladder operators cannot connect.
    """

    q: Fraction
    n: int

    def occupation(self, k: int) -> int:
        j = (self.q * k * k - 1) / k
        if j.denominator != 1:
            raise ValueError(f"q={self.q} is not an allowed label for k={k}")
        return k * self.n + int(j)


def q_from_occupation(k: int, m: int) -> ModeLabel:
    """Label of the Fock state with occupation m in a mode of power k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("occupation must be >= 0")
    j = m % k
    return ModeLabel(q=Fraction(j * k + 1, k * k), n=m // k)


@dataclass(frozen=True, eq=False)
class Sector:
    """One invariant block of the Hamiltonian.

    `q1`/`q2` hold the per-mode tower labels of the two groups; `l1`/`l2`
    the central differences of adjacent single-mode number values within
    each group; `kappa` the conserved half-sum of the two group averages.
    `dim` = N+1 counts the states, and `base_occupations` is the unique
    state the lowering interaction term annihilates.

    `t` is pinned by the identity N = 2*kappa - q_r - q_{r+s} - t.  When
    the last mode of each group is the one that exhausts first (the
    labeling the closed-form tables assume), `t` coincides with the
    central-value expression returned by :func:`label_t`.

    Sector identity is the label tuple (q1, q2, l1, l2, kappa);
    `base_occupations` and `dim` are derived, not defining.
    """

    q1: tuple
    q2: tuple
    l1: tuple
    l2: tuple
    kappa: Fraction
    t: Fraction
    dim: int
    base_occupations: tuple

    def __eq__(self, other):
        if not isinstance(other, Sector):
            return NotImplemented
        return self.label_key == other.label_key

    def __hash__(self):
        return hash(self.label_key)

    @property
    def label_key(self):
        return (self.q1, self.q2, self.l1, self.l2, self.kappa)

    @property
    def n_top(self) -> int:
        """Largest internal level index N (= dim - 1)."""
        return self.dim - 1

    def s1(self) -> tuple:
        """Partial sums s_i^(1) = sum_{j>=i} l1_j, with s_r^(1) = 0."""
        return _suffix_sums(self.l1)

    def s2(self) -> tuple:
        """Partial sums s_i^(2) for the second group, with s_{r+s}^(2) = 0."""
        return _suffix_sums(self.l2)


def _suffix_sums(values) -> tuple:
    """(sum(values[i:]) for each i), then a closing 0, as exact Fractions."""
    out = []
    acc = Fraction(0)
    for v in reversed(values):
        acc = acc + v
        out.append(acc)
    out.reverse()
    out.append(Fraction(0))
    return tuple(out)


def label_t(sector: Sector) -> Fraction:
    """t computed from the stored central values alone.

    Equals ``sector.t`` exactly on sectors where the reference-mode
    labeling applies (base state empties the last mode of group 1, top
    state empties the last mode of group 2); differs by a positive integer
    otherwise.
    """
    r = len(sector.l1) + 1
    s = len(sector.l2) + 1
    return Fraction(sum(sector.s1(), Fraction(0)), r) + Fraction(sum(sector.s2(), Fraction(0)), s)


def sector_from_occupations(model: ModelSpec, occupations: Sequence[int]) -> Sector:
    """Identify the invariant sector containing a given Fock state.

    Total on valid inputs: every occupation vector lies in exactly one
    sector.  The per-mode q values come from the occupation residues, the
    l values from differences of the single-mode number values
    Q0_i = (m_i + 1/k_i)/k_i, and kappa from the two group averages.  The
    base state is found by lowering with the interaction term until a
    creation-group mode would go negative.  Each occupation must be
    integral (an int, or a float or Fraction equal to one); anything else
    raises ValueError, never truncated.
    """
    occ = tuple(_as_int(m, "occupations") for m in occupations)
    if len(occ) != model.n_modes:
        raise ValueError(f"occupations must have length r+s={model.n_modes}, got {len(occ)}")
    if any(m < 0 for m in occ):
        raise ValueError("occupations must be nonnegative")

    labels = [q_from_occupation(model.k[i], occ[i]) for i in range(model.n_modes)]
    levels = [lab.n for lab in labels]
    q0 = [lab.q + lab.n for lab in labels]

    r, s = model.r, model.s
    l1 = tuple(q0[i] - q0[i + 1] for i in range(r - 1))
    l2 = tuple(q0[i] - q0[i + 1] for i in range(r, r + s - 1))
    mean1 = Fraction(sum(q0[:r], Fraction(0)), r)
    mean2 = Fraction(sum(q0[r:], Fraction(0)), s)
    kappa = (mean1 + mean2) / 2

    down = min(levels[:r])
    n_top = down + min(levels[r:])
    base = tuple(
        occ[i] - model.k[i] * down if i < r else occ[i] + model.k[i] * down
        for i in range(model.n_modes)
    )

    q1 = tuple(lab.q for lab in labels[:r])
    q2 = tuple(lab.q for lab in labels[r:])
    t = 2 * kappa - q1[-1] - q2[-1] - n_top
    return Sector(q1=q1, q2=q2, l1=l1, l2=l2, kappa=kappa, t=t,
                  dim=n_top + 1, base_occupations=base)


def occupations_at(model: ModelSpec, sector: Sector, n: int) -> tuple:
    """Occupation vector of the sector state with internal index n.

    Index n runs from 0 (base state) to N; each step adds k_i to the
    creation-group modes and removes k_i from the annihilation-group ones.
    """
    if not 0 <= n <= sector.n_top:
        raise ValueError(f"internal index n={n} outside 0..{sector.n_top}")
    return _occupations(model, sector, n)


def _occupations(model: ModelSpec, sector: Sector, n: int) -> tuple:
    """m_i(n) = b_i + k_i n on group 1 and b_i - k_i n on group 2, at any
    integer n: past N it continues the occupations as polynomials in n."""
    return tuple(
        b + model.k[i] * n if i < model.r else b - model.k[i] * n
        for i, b in enumerate(sector.base_occupations)
    )


def base_number_values(model: ModelSpec, sector: Sector) -> tuple:
    """Single-mode values Q0_i = (m_i + 1/k_i)/k_i at the base state.

    These are the anchors every ladder / hop-coefficient formula is built
    from: for the creation group Q0_i(n) = Q0_i(0) + n, for the
    annihilation group Q0_i(n) = Q0_i(0) - n.
    """
    return tuple(
        Fraction(b * model.k[i] + 1, model.k[i] * model.k[i])
        for i, b in enumerate(sector.base_occupations)
    )
