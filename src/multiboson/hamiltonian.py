"""Exact (N+1) x (N+1) Hamiltonian blocks of one sector and their spectra.

Two equivalent tridiagonal forms are built: the symmetric Fock-basis block
with square-root factorial matrix elements, and the non-symmetric
monomial-basis block whose entries are the hop values A(n), B(n), C(n) of
`diffop.hop_values`.  Both share that helper's diagonal B(n); the Fock
off-diagonal stays an independent construction (`transition_element`).
The two are related by an explicit diagonal similarity (ratios of Fock
normalization constants), so their spectra agree by construction;
diagonalizing the Fock block is the ground-truth oracle the root-based
solver is checked against.  Both blocks are diagonalized with numpy
alone, as dense symmetric matrices of size N+1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diffop import hop_values
from .fock import ModelSpec, Sector, occupations_at

# Occupations above this use log-space factorial sums instead of exact
# integer products, keeping matrix elements finite without overflow.
_EXACT_OCCUPATION_LIMIT = 20
# Blocks beyond this size with huge off-diagonal entries get a conditioning
# warning: the entries are finite (log-space construction) but spectra of
# matrices with ~1e12 entry spreads should be inspected, not trusted.
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
    """Eigenvalues (ascending) and eigenvectors (columns, block's basis)."""

    energies: np.ndarray
    vectors: np.ndarray


def _sqrt_product(factors, occupations) -> float:
    """sqrt(prod(factors)) for the integer factors of a factorial ratio at
    the given occupations; a negative factor is an inconsistent sector."""
    if any(f < 0 for f in factors):
        raise ValueError("negative factorial ratio: occupations inconsistent with sector")
    if any(f == 0 for f in factors):
        return 0.0
    if max(occupations) <= _EXACT_OCCUPATION_LIMIT:
        prod = 1
        for f in factors:
            prod *= f
        return math.sqrt(prod)
    return math.exp(0.5 * sum(math.log(f) for f in factors))


def transition_element(model: ModelSpec, occupations) -> float:
    """Matrix element of the raw interaction product between level n and n+1.

    Equals prod_{i<=r} sqrt((m_i+k_i)!/m_i!) * prod_{i>r} sqrt(m_i!/(m_i-k_i)!)
    at the given occupations; exact integer products under the square root
    for small occupations, log-space factorial sums above the cutoff.
    """
    factors = []
    for i in model.group1:
        m, k = occupations[i], model.k[i]
        for j in range(1, k + 1):
            factors.append(m + j)
    for i in model.group2:
        m, k = occupations[i], model.k[i]
        for j in range(k):
            factors.append(m - j)
    return _sqrt_product(factors, occupations)


def _maybe_warn_conditioning(block: TridiagonalBlock):
    if block.dim > _WARN_DIM and block.dim > 1:
        peak = max(np.max(np.abs(block.upper)), np.max(np.abs(block.lower)), 0.0)
        if peak > _WARN_ELEMENT:
            warnings.warn(
                f"{block.basis} block of dimension {block.dim} has off-diagonal "
                f"entries up to {peak:.3e}; spectrum may be ill-conditioned",
                ConditioningWarning, stacklevel=3)


def build_sector_matrix(model: ModelSpec, sector: Sector) -> TridiagonalBlock:
    """Symmetric Fock-basis block: diagonal number energies, g times the
    factorial-ratio interaction elements off the diagonal."""
    _, hop_b, _ = hop_values(model, sector)
    diag = np.array([float(b) for b in hop_b])
    off = np.array([float(model.g) * transition_element(model, occupations_at(model, sector, n))
                    for n in range(sector.n_top)])
    block = TridiagonalBlock(basis="fock", diag=diag, upper=off, lower=off.copy())
    _maybe_warn_conditioning(block)
    return block


def build_monomial_matrix(model: ModelSpec, sector: Sector) -> TridiagonalBlock:
    """Non-symmetric monomial-basis block: upper A(0..N-1), diagonal
    B(0..N) and lower C(1..N), the hop values of `diffop.hop_values`,
    each rounded to float once."""
    hop_a, hop_b, hop_c = (np.array([float(x) for x in values], dtype=float)
                           for values in hop_values(model, sector))
    block = TridiagonalBlock(basis="monomial", diag=hop_b, upper=hop_a, lower=hop_c)
    _maybe_warn_conditioning(block)
    return block


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            vectors[:, j] = -col
    return vectors


def diagonalize(block: TridiagonalBlock) -> SpectrumResult:
    """Full eigendecomposition of a sector block.

    The Fock block goes straight to numpy's symmetric eigensolver, as a
    dense matrix holding its diagonal and lower band (`np.linalg.eigh`
    reads the lower triangle only).  The monomial block is symmetrized by
    the diagonal similarity with ratios upper[i]/sqrt(upper[i]*lower[i])
    (the Fock normalization ratios), then the eigenvectors are mapped back
    to monomial coordinates.
    """
    n = block.dim
    if block.basis == "fock":
        energies, vectors = np.linalg.eigh(np.diag(block.diag) + np.diag(block.upper, -1))
    else:
        prod = block.upper * block.lower
        if n > 1 and np.min(prod) < -1e-12 * max(1.0, float(np.max(np.abs(prod)))):
            raise ValueError("monomial block has upper*lower < 0; cannot symmetrize")
        sym_off = np.sqrt(np.maximum(prod, 0.0))
        energies, sym_vectors = np.linalg.eigh(np.diag(block.diag) + np.diag(sym_off, -1))
        scale = np.ones(n)
        for i in range(n - 1):
            scale[i + 1] = scale[i] * (block.upper[i] / sym_off[i] if sym_off[i] > 0 else 1.0)
        vectors = sym_vectors * scale[:, None]
        vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return SpectrumResult(energies=energies,
                          vectors=_fix_phases(np.ascontiguousarray(vectors)))
