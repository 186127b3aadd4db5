"""Exact (N+1) x (N+1) Hamiltonian blocks of one sector and their spectra.

Two equivalent tridiagonal forms are built: the symmetric Fock-basis block
with square-root factorial matrix elements, and the non-symmetric
monomial-basis block whose entries are the hop values A(n), B(n), C(n) of
`diffop.hop_values`.  Both are read off the sector's one hop table: its
diagonal B(n), and off it the Fock block's g sqrt(A(n)/g * C(n+1)/g), bit
for bit g times `transition_element`.  The two are related by an explicit
diagonal similarity (ratios of Fock normalization constants), so their
spectra agree by construction; diagonalizing the Fock block is the
ground-truth oracle the root-based solver is checked against.  Both spectra
come from numpy's dense symmetric eigensolver; the monomial eigenvectors,
each level's eigenpolynomial coefficients, come from a twisted
factorization only (`_twisted_rows`), in float64, and they are the only
rows the root solver finds roots of.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diffop import _hop_table
from .fock import ModelSpec, Sector

# Blocks beyond this size with huge off-diagonal entries get a conditioning
# warning: the entries are square roots of exact integer products, but
# spectra of matrices with ~1e12 entry spreads should be inspected, not
# trusted.
_WARN_DIM = 61
_WARN_ELEMENT = 1e12


class ConditioningWarning(RuntimeWarning):
    """Raised (as a warning) for large blocks with extreme entry growth."""


@dataclass(frozen=True)
class TridiagonalBlock:
    """One sector block; `basis` is 'fock' (symmetric) or 'monomial'.

    upper[i] couples level i -> i+1 and lower[i] couples i+1 -> i; in the
    monomial basis upper[i] = A(i) and lower[i] = C(i+1).  The diagonal is
    the same in both bases: the interaction strictly shifts the level.
    """

    basis: str
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        mat = np.diag(self.diag)
        n = self.dim
        for i in range(n - 1):
            mat[i + 1, i] = self.upper[i]
            mat[i, i + 1] = self.lower[i]
        return mat


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (ascending) and eigenvectors (columns, block's basis):
    Fock columns of unit norm, their largest-magnitude entry positive;
    monomial columns peak-normalized to largest magnitude 1."""

    energies: np.ndarray
    vectors: np.ndarray


def _rounded_sqrt(product: int) -> float:
    """Correctly rounded square root of a nonnegative integer: `math.sqrt`
    below 2^53, where the integer is a float; above, `math.isqrt` of it
    shifted left by 2s bits (a root of 55 bits or more), its low bit set if
    inexact, over 2^s.  A root past float64's range raises OverflowError."""
    if product < 1 << 53:
        return math.sqrt(product)
    shift = max(0, (110 - product.bit_length()) // 2)
    scaled = product << 2 * shift
    root = math.isqrt(scaled)
    return math.ldexp(root | (root * root != scaled), -shift)


def _sqrt_product(factors) -> float:
    """`_rounded_sqrt` of the product of a factorial ratio's integer
    factors.  A negative factor is an inconsistent sector."""
    if any(f < 0 for f in factors):
        raise ValueError("negative factorial ratio: occupations inconsistent with sector")
    return _rounded_sqrt(math.prod(factors))


def transition_element(model: ModelSpec, occupations) -> float:
    """Matrix element of the raw interaction product between level n and n+1.

    Equals prod_{i<=r} sqrt((m_i+k_i)!/m_i!) * prod_{i>r} sqrt(m_i!/(m_i-k_i)!)
    at the given occupations: the square root of the exact integer
    product (`_sqrt_product`).
    """
    factors = [occupations[i] + j for i in model.group1 for j in range(1, model.k[i] + 1)]
    factors += [occupations[i] - j for i in model.group2 for j in range(model.k[i])]
    return _sqrt_product(factors)


def _maybe_warn_conditioning(block: TridiagonalBlock, stacklevel: int = 3):
    if block.dim > _WARN_DIM:
        peak = max(np.max(np.abs(block.upper)), np.max(np.abs(block.lower)), 0.0)
        if peak > _WARN_ELEMENT:
            warnings.warn(
                f"{block.basis} block of dimension {block.dim} has off-diagonal "
                f"entries up to {peak:.3e}; spectrum may be ill-conditioned",
                ConditioningWarning, stacklevel=stacklevel)


def build_sector_matrix(model: ModelSpec, sector: Sector) -> TridiagonalBlock:
    """Symmetric Fock-basis block: diagonal number energies, and off it g
    times the root of the hop table's A(n)/g * C(n+1)/g, bit for bit g
    times `transition_element`.  A negative factor m_i - k_i + 1 at its
    lowest row (N - 1 on group 2, 1 on group 1) is an inconsistent sector."""
    return _scaled_fock(_unit_fock(model, sector), model.g)


def _unit_fock(model: ModelSpec, sector: Sector) -> TridiagonalBlock:
    """The Fock block with g left out, which neither its diagonal nor the
    roots off it depend on, unchecked for conditioning: `_scaled_fock`
    makes it the block at any g."""
    _, rows, hop_a, hop_c, (_, hop_b, _) = _hop_table(model, sector)
    n_top = sector.n_top
    if n_top and any(rows[n_top - 1 if i in model.group2 else 1][i] < k - 1
                     for i, k in enumerate(model.k)):
        raise ValueError("negative factorial ratio: occupations inconsistent with sector")
    diag = np.array([float(b) for b in hop_b])
    roots = np.array([_rounded_sqrt(a * c) for a, c in zip(hop_a[:n_top], hop_c[1:])])
    return TridiagonalBlock(basis="fock", diag=diag, upper=roots, lower=roots)


def _scaled_fock(unit: TridiagonalBlock, g) -> TridiagonalBlock:
    """The Fock block at coupling g from `_unit_fock`'s: each root off the
    diagonal times float(g), checked for conditioning."""
    # Python's product overflows to inf silently; a block of one level takes
    # no float(g), which may overflow
    off = np.array([float(g) * root for root in unit.upper.tolist()], dtype=float)
    block = TridiagonalBlock(basis="fock", diag=unit.diag, upper=off, lower=off.copy())
    _maybe_warn_conditioning(block, stacklevel=4)   # at the builder's caller
    return block


def build_monomial_matrix(model: ModelSpec, sector: Sector) -> TridiagonalBlock:
    """Non-symmetric monomial-basis block: upper A(0..N-1), diagonal
    B(0..N) and lower C(1..N), the hop values of `diffop.hop_values`,
    each rounded to float once."""
    hop_a, hop_b, hop_c = (np.array([float(x) for x in values], dtype=float)
                           for values in _hop_table(model, sector)[4])
    block = TridiagonalBlock(basis="monomial", diag=hop_b, upper=hop_a, lower=hop_c)
    _maybe_warn_conditioning(block)
    return block


def _pivots(shift: np.ndarray, couplings: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """The pivots of one sweep, D_0 = d_0 and D_i = d_i - c_(i-1) / D_(i-1),
    for each column of the shifted diagonals d, (N + 1, ...), at once, with
    the couplings c, (N, ...), broadcast against them: `_twisted_rows` runs
    its top-down and its bottom-up sweep side by side.  With a floor, a
    pivot that is exactly zero is replaced by it before it divides; the
    last pivot divides nothing and is kept."""
    pivots = [shift[0]]
    for d, c in zip(shift[1:], couplings):
        if floor:
            pivots[-1] = np.where(pivots[-1] == 0, floor, pivots[-1])
        pivots.append(d - c / pivots[-1])
    return np.array(pivots)


def _twisted_rows(block: TridiagonalBlock, energies) -> np.ndarray:
    """Eigenvectors of the monomial block M at every energy at once, as
    rows, from a twisted factorization of M minus each energy.

    With the block's rows M[i, i-1] = upper[i-1], M[i, i] = diag[i] and
    M[i, i+1] = lower[i], and d = diag - E, the top-down pivots are
    D+_0 = d_0, D+_i = d_i - upper[i-1] lower[i-1] / D+_{i-1}, the
    bottom-up ones D-_N = d_N, D-_i = d_i - upper[i] lower[i] / D-_{i+1}.
    A pivot that comes out exactly zero is replaced, before it divides, by
    eps times the block's scale, its largest entry, as LAPACK's dlar1v
    replaces a tiny one, so the next pivot is large rather than infinite;
    no other pivot changes, and the last pivot of each sweep, which
    divides nothing, is kept as it is (`_pivots`).  A level's twist k
    minimizes |D+_k + D-_k - d_k|, the reciprocal of the resolvent's k-th
    diagonal entry, so z_k = 1 sits on a large component of the
    eigenvector.  From it the vector follows outward, one product each
    way: z_i = -lower[i] z_{i+1} / D+_i above the twist and
    z_i = -upper[i-1] z_{i-1} / D-_i below it (Fernando 1997; Parlett &
    Dhillon 1997).  Each entry is a product of ratios, not what is left of
    a forward recurrence's cancelling terms, so components far below the
    peak, which a symmetric eigensolver's vectors lose, come out in float64
    with a relative error set by the pivots' and the energy's.  Rows are
    (L, N + 1), one per energy, peak-normalized, the twist entry positive;
    an overflow leaves the row non-finite, silently.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shift = block.diag[:, None] - np.asarray(energies, dtype=float)   # (N + 1, L)
        couplings = block.upper * block.lower
        # the top-down sweep and the bottom-up one (top-down on the reversed
        # block) side by side, (N + 1, 2, L)
        sweeps = np.stack((shift, shift[::-1]), axis=1)
        couplings = np.stack((couplings, couplings[::-1]), axis=1)[:, :, None]
        pivots = _pivots(sweeps, couplings)
        if (pivots[:-1] == 0).any():
            # a zero pivot divided: sweep again with the floor, which
            # changes only pivots that are exactly zero
            floor = np.finfo(float).eps * max(np.max(np.abs(part), initial=0.0)
                                              for part in (block.diag, block.upper, block.lower))
            pivots = _pivots(sweeps, couplings, floor)
        plus, minus = pivots[:, 0], pivots[::-1, 1]
        gamma = np.abs(plus + minus - shift)
        twist = np.argmin(np.where(np.isnan(gamma), np.inf, gamma), axis=0)
        index = np.arange(len(shift) - 1)[:, None]
        # ratios z_i / z_{i+1} above the twist and z_{i+1} / z_i below it; 1
        # elsewhere, so each cumulative product runs outward from z_k = 1
        up = np.where(index < twist, -block.lower[:, None] / plus[:-1], 1.0)
        down = np.where(index >= twist, -block.upper[:, None] / minus[1:], 1.0)
        rows = np.ones_like(shift)
        rows[:-1] = np.cumprod(up[::-1], axis=0)[::-1]
        rows[1:] *= np.cumprod(down, axis=0)
        return (rows / np.max(np.abs(rows), axis=0)).T


def diagonalize(block: TridiagonalBlock) -> SpectrumResult:
    """Full eigendecomposition of a sector block.

    The energies come from numpy's symmetric eigensolver, on a dense matrix
    holding the diagonal and lower band (`np.linalg.eigh` reads the lower
    triangle only); the monomial block is first symmetrized by the
    diagonal similarity with ratios upper[i]/sqrt(upper[i]*lower[i]) (the
    Fock normalization ratios).  Its eigenvectors are the twisted rows at
    those energies, transposed (`_twisted_rows`), or, for a diagonal block
    (g = 0, or N = 0), the unit vectors of the diagonal's indices in
    stable ascending order: the monomials themselves.
    """
    if block.basis == "fock":
        energies, vectors = np.linalg.eigh(np.diag(block.diag) + np.diag(block.upper, -1))
        peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(block.dim)]
        return SpectrumResult(energies=energies, vectors=np.where(peaks < 0, -vectors, vectors))
    with np.errstate(over="ignore"):
        prod = block.upper * block.lower
    if not np.isfinite(prod).all():
        raise OverflowError("monomial block: upper * lower overflows float64")
    if block.dim > 1 and np.min(prod) < -1e-12 * max(1.0, float(np.max(np.abs(prod)))):
        raise ValueError("monomial block has upper*lower < 0; cannot symmetrize")
    sym_off = np.sqrt(np.maximum(prod, 0.0))
    energies = np.linalg.eigh(np.diag(block.diag) + np.diag(sym_off, -1))[0]
    if not block.lower.any():
        vectors = np.eye(block.dim)[:, np.argsort(block.diag, kind="stable")]
    else:
        vectors = _twisted_rows(block, energies).T
    return SpectrumResult(energies=energies, vectors=vectors)
