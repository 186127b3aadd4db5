"""Functional Bethe ansatz: root equations, energies, and cross-validation.

Each eigenfunction of a sector's differential operator is a polynomial
psi(z) = prod_p (z - alpha_p) whose roots make every simple pole of
(H psi)/psi removable.  Two equivalent residual forms are used:

* the pole-residue (Bethe-equation) form, evaluated through derivatives of
  psi -- componentwise  sum_i P_i(a_p) psi^(i)(a_p) / psi'(a_p);
* the robust polynomial form  (H psi)(a_p),  which needs no division and
  therefore works for coincident roots.

For pairwise-distinct roots the two differ exactly by the factor
psi'(a_p).  The energy depends on the roots only through their sum:
E = B(N) - A(N-1) * sum(alpha), with A, B the hop values of
`diffop.hop_values`.

The production solve path solves a diagonal block (g = 0, or N = 0)
exactly: each level is a monomial z^n with energy B(n).  Otherwise it takes
each level's roots from the companion matrix of an eigenpolynomial, down
one ladder of four rungs.  The first two read the block's eigenvector at
each level's eigenvalue: from a twisted factorization of the monomial
block minus that eigenvalue (`_twisted_rows`), which keeps the small
components an eigensolver flushes to zero, then from `diagonalize`'s
eigenvectors.  The last two rebuild the coefficients from the three-term
recurrence (`_recurrence`): at high working precision in the standard
library's `decimal`, then, as the last resort, in float64 on the monomial
block, whose complex rows cost the most to solve.  Each rung builds one row
per still unresolved level, drops the rows that are non-finite or have a
zero top coefficient, and judges the rest at once, as one stack of root
sets, whose roots come from one stacked companion-matrix eigensolve
(`_roots_of_rows`); a row LAPACK does not converge on is dropped too.  Each
candidate is canonicalized once, and that one set is both scored and
returned, as a read-only complex array; a level's first set that passes is
accepted: its scaled robust residual is within a fixed 1e-12 and its
closed-form energy agrees with the oracle eigenvalue to a fixed 1e-8 of
max(1, |E|).  When none passes, the level is reported unconverged and
keeps the attempt whose energy agrees, the smaller residual and then the
smaller energy error breaking ties.  `cross_validate` certifies a level
whose returned roots' scaled robust residual is within a fixed 1e-10 and
whose energy is within 1e-8 of the spectral scale.  The terms P_i(a_p) psi^(i)(a_p) of H psi and
their magnitude bounds are evaluated once per stack of root sets
(`_terms_at_roots`, with numpy.polynomial's Horner sweep and derivative
written out), and both residual forms read that one evaluation; an
overflowed bound reads as an infinite residual.  An independent
multi-start Newton search on the pole-residue equations, run on the same
operator, is available as a confirmation mode (`direct_search`).
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .diffop import DiffOpForm, expand_diffop, hop_values
from .fock import ModelSpec, Sector
from .hamiltonian import build_monomial_matrix, build_sector_matrix, diagonalize


# Relative separation below which a root set counts as degenerate.
_DEGENERATE_TOL = 1e-6
# Scale of the random starting root sets of the direct search.
_START_RADIUS = 3.0
# Relative distance below which two direct-search solutions are one.
_DEDUP_TOL = 1e-7
# Relative root separation the pole-residue form needs.
_MIN_SEPARATION = 1e-10
# Relative distance within which `canonicalize_roots` snaps conjugate pairs.
_PAIR_TOL = 1e-11
# Scaled robust residual of a level's returned roots in `cross_validate`.
_RESIDUAL_TOL = 1e-10
# Scaled robust residual that ends a level's climb down the ladder.  It is
# tighter than `_RESIDUAL_TOL` on purpose: at 1e-10 no pass flag moves, but
# levels stop at coarser roots.  On preset A, anchor (0, 3, N), w = (0.4,
# -0.3, 0.2), w12 = 0.5, g = 0.8, the worst energy error then rises from
# 2.0e-10 to 3.9e-9 at N = 60 and from 1.8e-11 to 5.1e-9 at N = 80.
_SEARCH_TOL = 1e-12
# Relative disagreement with the oracle eigenvalue a level's energy may have.
_ENERGY_TOL = 1e-8
# Newton steps from each start of the direct search.
_NEWTON_STEPS = 50
# Imaginary part of a closed-form energy, relative to max(1, |Re E|), above
# which its root set is rejected as not conjugate-symmetric.
_IMAG_TOL = 1e-8


@dataclass(frozen=True, slots=True, eq=False)   # slots: callers keep one per level
class BetheSolution:
    """One eigenlevel: canonical roots, energy, and residual diagnostics.

    `roots` is a read-only complex128 array, empty when the level has no
    roots.  `residual_bae` is NaN when the pole-residue form does not apply
    (degenerate or reduced root sets).  `reduced` is set only on a level
    of a g = 0 block below the top one: its eigenfunction z^n has fewer
    than N roots.  `source` tags how the roots were obtained: 'extracted'
    (the block's eigenvector, from the twisted factorization or from the
    eigensolver, or the exact monomial of a diagonal block), 'refined'
    (roots of a recurrence-built eigenpolynomial), or 'direct'
    (independent multi-start search).
    """

    level: int
    roots: np.ndarray
    energy: float
    oracle_energy: float
    residual_bae: float
    residual_robust: float
    source: str
    degenerate: bool
    reduced: bool
    converged: bool

    # an array has no truth value: solutions compare and hash their roots'
    # bytes, so equal solutions stay equal and hashable
    def _key(self):
        return tuple(self.roots.tobytes() if f.name == "roots" else getattr(self, f.name)
                     for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class LevelRecord:
    level: int
    energy_fock: float
    energy_monomial: float
    energy_bethe: float
    energy_error: float
    residual_robust: float
    residual_bae: float
    n_roots: int
    degenerate: bool
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    """Three-way agreement record for one sector."""

    dim: int
    base_occupations: tuple
    levels: tuple
    max_energy_error: float
    passed: bool
    solutions: tuple = ()

    def failing_levels(self):
        return [rec for rec in self.levels if not rec.ok]


# ----------------------------------------------------------------------
# residual kernels on stacks of root sets
#
# Every kernel works on an (L, N) stack of root sets, one per row; a single
# root set is a stack of one.  `_terms_at_roots` evaluates the terms of
# H psi at the roots once, and both residual forms read that evaluation.
# The kernels let overflow read as inf and undefined values as NaN: their
# callers run them under `_quiet`.

def _quiet(func):
    """Run `func` with numpy's overflow, invalid and divide warnings off."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return func(*args, **kwargs)
    return wrapper


def _monic_from_roots(roots) -> np.ndarray:
    """Coefficients of prod_p (z - a_p), one row per root set: (L, N) ->
    (L, N + 1), or (N,) -> (N + 1,) for a single set.

    Step j multiplies every row by (z - a_j) at once: the partial product
    of degree j fills the top j + 1 entries, so widening its window by one
    entry multiplies it by z.
    """
    roots = np.asarray(roots, dtype=complex)
    rows = np.atleast_2d(roots)
    n = rows.shape[1]
    out = np.zeros((rows.shape[0], n + 1), dtype=complex)
    out[:, n] = 1.0
    for j in range(n):
        out[:, n - j - 1:n] -= rows[:, j, None] * out[:, n - j:]
    return out if roots.ndim == 2 else out[0]


def _float_polys(op: DiffOpForm):
    return [np.asarray([complex(c) for c in p.coeffs], dtype=complex) for p in op.p]


def _at(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Polynomial values at an (L, N) array of points: one shared
    coefficient vector, or one (L, K) row of coefficients per row of points
    in a single Horner sweep.

    The sweep is `numpy.polynomial.polynomial.polyval`'s, operation for
    operation, so the values are its values bit for bit.
    """
    c = coeffs[:, None, None] if coeffs.ndim == 1 else coeffs.T[:, :, None]
    value = c[-1] + points * 0
    for k in range(2, len(c) + 1):
        value = c[-k] + value * points
    return value


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """d/dz of each (L, K) row of coefficients, low to high, bit for bit
    `numpy.polynomial.polynomial.polyder(coeffs, axis=-1)`.

    Its steps are kept: the rows are first scaled by 1, which is not a
    no-op for complex specials (inf + 0j times 1 + 0j is inf + nanj), then
    coefficient j is multiplied by j; a constant's derivative is c * 0.
    """
    k = coeffs.shape[-1]
    if k == 1:
        return coeffs[..., :1] * 0
    return np.arange(1, k) * (coeffs * 1)[..., 1:]


def _terms_at_roots(p_list, roots: np.ndarray):
    """The terms of H psi = sum_i P_i psi^(i) at every root of the stack.

    Returns (terms, bounds, dpsi): terms[i] = P_i(a_p) psi^(i)(a_p) and
    bounds[i] = |P_i|(|a_p|) |psi^(i)|(|a_p|), each (M + 1, L, N), where
    |q| is q with its coefficients' magnitudes; dpsi = psi'(a_p) is (L, N).
    The bounds are the residual scale, which must not come from the
    (possibly perfectly cancelled) sum: an eigenvalue at zero makes H psi
    the zero polynomial.
    """
    derivs = [_monic_from_roots(roots)]
    for _ in range(len(p_list) - 1):
        derivs.append(_derivative(derivs[-1]))
    points = np.abs(roots)
    terms = np.zeros((len(derivs),) + roots.shape, dtype=complex)
    bounds = np.zeros(terms.shape)
    values = [_at(deriv, roots) for deriv in derivs]
    for i, (p, deriv) in enumerate(zip(p_list, derivs)):
        if p.size:
            terms[i] = _at(p, roots) * values[i]
            bounds[i] = _at(np.abs(p), points) * _at(np.abs(deriv), points)
    return terms, bounds, values[1]


def _has_close_pair(roots: np.ndarray, rel_tol: float) -> bool:
    """Whether two roots lie within rel_tol * max(1, max|root|).

    A NaN gap never counts as close and hides no other pair.
    """
    n = roots.size
    if n < 2:
        return False
    scale = max(1.0, float(np.max(np.abs(roots))))
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(np.any(gaps < rel_tol * scale))


def _scaled_robust(at) -> np.ndarray:
    """Backward-error style residual per root set: max_p |H psi(a_p)| over
    the bound of the terms that built it at a_p, from `_terms_at_roots`.

    Overflow (roots far off the scale of a badly conditioned
    eigenpolynomial) reads as inf and fails acceptance, in the bound as
    well as in the value: a finite value over an overflowed bound is no
    certificate.
    """
    terms, bounds, _ = at
    bound = bounds.sum(axis=0)
    ratio = np.abs(terms.sum(axis=0)) / np.maximum(bound, 1e-300)
    ratio[~np.isfinite(ratio) | ~np.isfinite(bound)] = math.inf
    return np.max(ratio, axis=1, initial=0.0)


def _pole_residues(at) -> np.ndarray:
    """sum_{i>=1} P_i(a_p) psi^(i)(a_p) / psi'(a_p), one component per root."""
    terms, _, dpsi = at
    return terms[1:].sum(axis=0) / dpsi


def _scaled_bae(at) -> np.ndarray:
    """Scaled magnitude of the pole-residue components per root set.

    Meaningful only for pairwise-separated roots (`_MIN_SEPARATION`): the
    caller checks that first, and a coincident pair reads NaN.  An
    overflowed bound reads inf, as in `_scaled_robust`.
    """
    _, bounds, dpsi = at
    bound = bounds[1:].sum(axis=0)
    scale = np.maximum(bound / np.maximum(np.abs(dpsi), 1e-300), 1.0)
    ratio = np.abs(_pole_residues(at)) / scale
    ratio[~np.isfinite(bound)] = math.inf
    return np.max(ratio, axis=1)


# ----------------------------------------------------------------------
# residual forms

@_quiet
def bethe_residuals(op: DiffOpForm, roots) -> np.ndarray:
    """Pole-residue components, one per root, via derivatives of psi.

    Component p is  sum_{i=1..M} P_i(a_p) psi^(i)(a_p) / psi'(a_p), which
    equals the nested subset sum over the other roots; all components
    vanish exactly when every a_p is a removable singularity of
    (H psi)/psi.  Requires pairwise separations above `_MIN_SEPARATION`
    relative to the root scale.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    if _has_close_pair(roots, _MIN_SEPARATION):
        raise ValueError("coincident roots: use the robust residual form")
    return _pole_residues(_terms_at_roots(_float_polys(op), roots[None]))[0]


@_quiet
def robust_residuals(op: DiffOpForm, roots) -> np.ndarray:
    """(H psi)(a_p) for the monic psi built from the roots.

    Vanishing of all components, together with the automatic degree bound
    deg(H psi) <= N, is equivalent to psi being an eigenfunction: a
    ratio (H psi)/psi with no poles and no growth at infinity is constant.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    terms, _, _ = _terms_at_roots(_float_polys(op), roots[None])
    return terms.sum(axis=0)[0]


# ----------------------------------------------------------------------
# root extraction and bookkeeping

def _roots_of_rows(rows) -> list:
    """Roots of each polynomial sum_n row[n] z^n, one complex array per row,
    each bit for bit `numpy.roots(row[::-1])` cast to complex.

    As in `numpy.roots`, a row's zero top coefficients are dropped, each zero
    constant term gives a root at 0 appended after the eigenvalues, and the
    companion matrix of what is left keeps the row's dtype (complex rows stay
    on LAPACK's zgeev).  The companion matrices of one (degree, dtype) are
    stacked into a single `np.linalg.eigvals` call, which runs geev on each
    in turn: a rung of the ladder makes one call for all of its levels.
    One matrix LAPACK does not converge on makes that call raise
    LinAlgError for the whole stack; the group is then redone one matrix
    at a time, and a row whose own eigensolve fails gets None, not roots.
    Every row needs a nonzero coefficient.
    """
    roots = [None] * len(rows)
    groups = {}
    for index, row in enumerate(rows):
        row = np.asarray(row)
        nonzero = np.flatnonzero(row)
        low, high = int(nonzero[0]), int(nonzero[-1])
        p = row[low:high + 1][::-1]
        groups.setdefault((p.size, p.dtype), []).append((index, p, low))
    for (size, dtype), members in groups.items():
        coeffs = np.array([p for _, p, _ in members])
        companion = np.zeros((len(members), size - 1, size - 1), dtype=dtype)
        companion[:, :1, :] = (-coeffs[:, 1:] / coeffs[:, :1])[:, None, :]
        companion[:, range(1, size - 1), range(size - 2)] = 1
        try:
            stack = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            stack = [_eigvals_or_none(matrix) for matrix in companion]
        for (index, _, zeros), values in zip(members, stack):
            if values is not None:
                roots[index] = np.concatenate((values, np.zeros(zeros))).astype(complex)
    return roots


def _eigvals_or_none(matrix):
    """Eigenvalues of one matrix, or None where LAPACK does not converge."""
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError:
        return None


def roots_from_eigenvector(coeffs):
    """Roots of the eigenpolynomial sum_n coeffs[n] z^n, and whether its
    degree is reduced.

    Uses companion-matrix eigenvalues (balanced internally), which stay
    accurate enough to pass as-is even when the leading coefficient sits
    twenty orders of magnitude below the largest one -- strongly localized
    levels genuinely look like that in the monomial basis.  Only an exact
    zero leading coefficient (the g = 0 situation) reduces the degree:
    exact-zero top coefficients are dropped, as `numpy.roots` does, and
    `reduced` is True.  The roots are those of `_roots_of_rows`, the one
    root routine of the package, on a single row; the solver's rungs call it
    on all of their levels at once, one stacked companion eigensolve per
    rung.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("eigenvector is identically zero")
    roots = _roots_of_rows([c])[0]
    if roots is None:
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    return roots, bool(c[-1] == 0.0)


def canonicalize_roots(roots) -> tuple:
    """Sort roots by (re, im) after snapping conjugate pairs.

    Near-real roots are flattened onto the axis; off-axis roots are paired
    with their closest conjugate partner and symmetrized, so a root set of
    a real-coefficient polynomial serializes deterministically.  The solver
    scores and returns this set, never the one it came from.
    """
    items = [complex(a) for a in roots]
    if not items:
        return ()
    scale = max(1.0, max(abs(a) for a in items))
    tol = _PAIR_TOL * scale
    reals = [a.real + 0.0j for a in items if abs(a.imag) <= tol]
    upper = sorted((a for a in items if a.imag > tol), key=lambda z: (z.real, z.imag))
    lower = sorted((a for a in items if a.imag < -tol), key=lambda z: (z.real, -z.imag))
    out = list(reals)
    used = [False] * len(lower)
    for a in upper:
        best, best_d = None, None
        for idx, b in enumerate(lower):
            if used[idx]:
                continue
            d = abs(a - b.conjugate())
            if best_d is None or d < best_d:
                best, best_d = idx, d
        if best is not None and best_d <= 10 * tol:
            used[best] = True
            m = (a + lower[best].conjugate()) / 2
            out.extend([m, m.conjugate()])
        else:
            out.append(a)
    out.extend(b for idx, b in enumerate(lower) if not used[idx])
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def _frozen(roots) -> np.ndarray:
    """A root set as the read-only complex128 array a `BetheSolution` keeps:
    16 bytes a root, where a tuple of Python complex costs about 40."""
    array = np.array(roots, dtype=complex)
    array.flags.writeable = False
    return array


def energy_from_roots(model: ModelSpec, sector: Sector, roots):
    """Closed-form energy of the level with the given root set.

    The coupling-dependent constant is B(N), the diagonal energy of the
    top state (level N); the only root dependence is linear in sum(alpha)
    with prefactor A(N-1).  Both come from `diffop.hop_values`.  Exact
    inputs give an exact result; complex float roots must have a
    conjugate-symmetric sum: an imaginary leftover above 1e-8 of
    max(1, |Re E|) raises ValueError.
    """
    return _energy(hop_values(model, sector), roots)


def _energy(values, roots):
    """E = B(N) - A(N-1) * sum(alpha) from a sector's hop values."""
    hop_a, hop_b, _ = values   # A(0..N-1), B(0..N)
    roots = tuple(roots)
    if len(roots) > len(hop_a):
        raise ValueError(f"got {len(roots)} roots for a sector with N={len(hop_a)}")
    if not roots:
        return hop_b[-1]
    energy = hop_b[-1] - hop_a[-1] * sum(roots)
    if isinstance(energy, complex):
        scale = max(1.0, abs(energy.real))
        if abs(energy.imag) > _IMAG_TOL * scale:
            raise ValueError(f"energy has imaginary part {energy.imag:.3e}: invalid root set")
        return float(energy.real)
    return energy


def _working_hops(values):
    """(context, A, B, C, A(m-1)C(m)) at the high-precision route's working
    precision, from a sector's hop values A(0..N-1), B(0..N), C(1..N).

    The working precision is max(40, 20 + 2N) digits: it scales with the
    block size so the coefficient span never eats the precision, and it is
    gated by `np.array_equal` of the rounded float64 coefficients against an
    independent mpmath reference at max(50, 30 + 4N) digits.  The exponent
    range is unbounded, like arbitrary-precision binary floats.  Fractions
    are divided at working precision, every other value enters through
    float.
    """
    n_top = len(values[1]) - 1
    context = decimal.Context(prec=max(40, 20 + 2 * n_top),
                              Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

    def convert(x):
        if isinstance(x, Fraction):
            return decimal.Decimal(x.numerator) / x.denominator
        return decimal.Decimal(float(x))

    with decimal.localcontext(context):
        hop_a, hop_b, hop_c = ([convert(x) for x in row] for row in values)
        off = [a * c for a, c in zip(hop_a, hop_c)]
    return context, hop_a, hop_b, hop_c, off


def _recurrence(hop_a, hop_b, hop_c, energy, c, peak_limit=None):
    """Fill c[1..N] from c[0] by C(m+1) c_{m+1} = (E - B(m)) c_m - A(m-1) c_{m-1}.

    With `peak_limit`, a new coefficient above it rescales the ones built so
    far by its magnitude: each earlier one is already at most the limit, so
    the newest is the peak, and only coefficient ratios matter for the roots.
    """
    for m in range(len(c) - 1):
        rhs = (energy - hop_b[m]) * c[m]
        if m > 0:
            rhs -= hop_a[m - 1] * c[m - 1]
        c[m + 1] = rhs / hop_c[m]
        if peak_limit is not None and abs(c[m + 1]) > peak_limit:
            c[: m + 2] /= abs(c[m + 1])
    return c


@_quiet
def _twisted_rows(block, energies) -> np.ndarray:
    """Eigenpolynomial coefficients of every level at once, from a twisted
    factorization of the monomial block M minus each energy.

    With the block's rows M[i, i-1] = upper[i-1], M[i, i] = diag[i] and
    M[i, i+1] = lower[i], and d = diag - E, the top-down pivots are
    D+_0 = d_0, D+_i = d_i - upper[i-1] lower[i-1] / D+_{i-1}, the
    bottom-up ones D-_N = d_N, D-_i = d_i - upper[i] lower[i] / D-_{i+1}.
    A level's twist k minimizes |D+_k + D-_k - d_k|, the reciprocal of the
    resolvent's k-th diagonal entry, so z_k = 1 sits on a large component
    of the eigenvector.  From it the vector follows outward, one product
    each way: z_i = -lower[i] z_{i+1} / D+_i above the twist and
    z_i = -upper[i-1] z_{i-1} / D-_i below it (Fernando 1997; Parlett &
    Dhillon 1997).  Each entry is a product of ratios, not what is left of
    a forward recurrence's cancelling terms, so components far below the
    peak, which an eigensolver flushes to zero, come out in float64 with a
    relative error set by the pivots' and the energy's.  Rows are
    (L, N + 1), one per energy, peak-normalized; a zero pivot or an
    overflow leaves the row non-finite.
    """
    shift = block.diag[:, None] - np.asarray(energies, dtype=float)   # (N + 1, L)
    couplings = (block.upper * block.lower).tolist()
    plus, minus = [shift[0]], [shift[-1]]
    for d, c in zip(shift[1:], couplings):
        plus.append(d - c / plus[-1])
    for d, c in zip(shift[-2::-1], couplings[::-1]):
        minus.append(d - c / minus[-1])
    plus, minus = np.array(plus), np.array(minus[::-1])
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


def _coefficients_at_energy(hops, energy: float) -> np.ndarray:
    """Eigenpolynomial coefficients rebuilt from the three-term recurrence.

    `hops` holds the float hop values A(0..N-1), B(0..N), C(1..N) of the
    monomial block.  For an eigenvalue E of that block the coefficients
    satisfy the recurrence of `_recurrence` with c_0 = 1, which is
    structurally nonzero.  This route survives the exact-zero flushing
    dense eigensolvers apply to negligible vector components.  It is the
    ladder's last rung: a level gets here only when neither eigenvector
    rung nor the high-precision recurrence gave a root set that passes,
    and its float64 roundoff still rescues a few such levels.
    """
    hop_a, hop_b, hop_c = hops
    c = np.zeros(len(hop_b), dtype=complex)
    c[0] = 1.0
    return _recurrence(hop_a, hop_b, hop_c, energy, c, peak_limit=1e200)


def _high_precision_coefficients(hops, energy: float) -> np.ndarray:
    """Eigenpolynomial coefficients from the recurrence at high precision.

    Working precision is the honest cure for hard levels: the eigenvalue
    is polished on the characteristic-polynomial recurrence of the
    monomial block, then the coefficients follow from the same three-term
    recurrence as `_coefficients_at_energy`, run at the working precision.
    That resolves every coefficient -- including components far below
    float64 visibility -- before the peak-normalized vector is rounded
    back to float64.  The arithmetic is the standard library's `decimal`
    on the sector's hop values, converted once per sector by
    `_working_hops`, which gives `hops`.  A vanishing C(m) raises
    ZeroDivisionError: the interaction is off and there is no recurrence
    (the ladder solves such a diagonal block exactly and never gets here).
    """
    context, hop_a, hop_b, hop_c, off = hops
    if not all(hop_c):   # decimal signals 0/0 as InvalidOperation: test first
        raise ZeroDivisionError("C(m) vanishes: no recurrence")
    n = len(hop_b) - 1
    with decimal.localcontext(context):
        one = decimal.Decimal(1)
        e_val = decimal.Decimal(energy)
        stop = decimal.Decimal(10) ** (8 - context.prec) * max(one, abs(e_val))
        for _ in range(80):
            # det(M - E) and its E-derivative via the minor recurrence
            p_prev, p_cur = one, hop_b[0] - e_val
            d_prev, d_cur = decimal.Decimal(0), -one
            for m in range(1, n + 1):
                diag = hop_b[m] - e_val
                p_new = diag * p_cur - off[m - 1] * p_prev
                d_new = -p_cur + diag * d_cur - off[m - 1] * d_prev
                p_prev, p_cur, d_prev, d_cur = p_cur, p_new, d_cur, d_new
            if d_cur == 0:
                break
            step = p_cur / d_cur
            e_val -= step
            if abs(step) <= stop:
                break
        vec = _recurrence(hop_a, hop_b, hop_c, e_val, [one] * (n + 1))
        peak = max(abs(x) for x in vec)
        return np.array([float(x / peak) for x in vec])


def _closed_form_energy(op: DiffOpForm, roots) -> float:
    try:
        return float(_energy(op.hop_values, roots))
    except ValueError:
        return math.nan


@_quiet
def _solve_levels(op, p_list, block, spec):
    """Root pipeline for all levels of a sector, in one pass down the ladder.

    A diagonal block (g = 0, or N = 0) is solved exactly: level l is
    z^n(l), n(l) the l-th index of B(0..N) in stable ascending order, as
    `diagonalize` orders it, with energy B(n) and zero residuals; it is
    `reduced` when n < N.  Otherwise the rungs are the twisted rows of
    every level at once (`_twisted_rows`), the eigenvector's coefficients,
    the decimal recurrence, whose hop values are converted only if a level
    reaches it, and last the float64 recurrence on the monomial block's hop
    values.  The first two are the block's eigenvector, computed two ways,
    and are both tagged 'extracted'.  The twisted rows come first because
    they pass the most levels (every level of the N=40 grid, where the
    eigenvector passes 60 of 123), and the decimal rung comes before the
    float64 one because its real rows are cheaper to solve than the
    float64 rung's complex ones.  Each rung builds one row per unresolved
    level, drops every row that is non-finite or has a zero top coefficient
    (an eigensolver flushes negligible components to exact zeros) or whose
    eigensolve does not converge, and judges the rest as one stack.  Each
    candidate is canonicalized once, and its residuals, energy and
    degenerate flag are those of the canonical set it returns.  The first
    set whose scaled residual meets `_SEARCH_TOL` and whose energy agrees
    with the oracle eigenvalue to `_ENERGY_TOL` is accepted, and later
    candidates of that level are never built.  When none passes, the level is unconverged and
    keeps the attempt whose energy agrees, the smaller residual and then
    the smaller energy error breaking ties: the energy depends on the roots
    only through their sum, so an agreeing candidate carries the right
    physics even when its roots are too coarse for the residual.  A level
    no rung gives a row is unconverged, with no roots and a NaN energy.
    Each level's roots are kept as a read-only complex array.
    """
    oracles = spec.energies.tolist()
    if not block.lower.any():
        n_top = block.dim - 1
        solutions = []
        for level, n in enumerate(np.argsort(block.diag, kind="stable").tolist()):
            degenerate, reduced = n >= 2, n < n_top
            solutions.append(BetheSolution(
                level=level, roots=_frozen(np.zeros(n)), energy=float(block.diag[n]),
                oracle_energy=oracles[level],
                residual_bae=math.nan if degenerate or reduced else 0.0, residual_robust=0.0,
                source="extracted", degenerate=degenerate, reduced=reduced, converged=True))
        return solutions

    # per level: (rank, resid, r_bae, roots, tag, energy) of the best
    # attempt; the rank puts a pass first, then an agreeing energy, then
    # the smaller residual, then the smaller energy error
    best = [None] * len(oracles)
    rungs = (("extracted", lambda: _twisted_rows(block, spec.energies),
              lambda rows, level: rows[level]),
             ("extracted", lambda: spec.vectors, lambda vectors, level: vectors[:, level]),
             ("refined", lambda: _working_hops(op.hop_values),
              lambda hops, level: _high_precision_coefficients(hops, oracles[level])),
             ("refined", lambda: [x.tolist() for x in (block.upper, block.diag, block.lower)],
              lambda hops, level: _coefficients_at_energy(hops, oracles[level])))
    live = range(len(oracles))
    for tag, inputs_of, build in rungs:
        if not live:
            break
        inputs = inputs_of()
        rows = {level: row for level, row in ((level, build(inputs, level)) for level in live)
                if np.all(np.isfinite(row)) and row[-1] != 0}
        # a row whose eigensolve failed has no roots and is dropped too
        found = {level: canonicalize_roots(roots)
                 for level, roots in zip(rows, _roots_of_rows(list(rows.values())))
                 if roots is not None}
        if found:
            at = _terms_at_roots(p_list, np.array(list(found.values()), dtype=complex))
            for (level, roots), resid, r_bae in zip(found.items(), _scaled_robust(at).tolist(),
                                                    _scaled_bae(at).tolist()):
                oracle = oracles[level]
                energy = _closed_form_energy(op, roots)
                error = abs(energy - oracle) if math.isfinite(energy) else math.inf
                agrees = error <= _ENERGY_TOL * max(1.0, abs(oracle))
                rank = (resid <= _SEARCH_TOL and agrees, agrees, -resid, -error)
                if best[level] is None or rank > best[level][0]:
                    best[level] = (rank, resid, r_bae, roots, tag, energy)
        live = [level for level in live if best[level] is None or not best[level][0][0]]

    solutions = []
    for level, (attempt, oracle) in enumerate(zip(best, oracles)):
        if attempt is None:
            attempt = ((False,), math.inf, math.nan, (), "extracted", math.nan)
        (converged, *_), r_robust, r_bae, roots, source, energy = attempt
        roots = _frozen(roots)
        degenerate = _has_close_pair(roots, _DEGENERATE_TOL)
        solutions.append(BetheSolution(
            level=level, roots=roots, energy=energy, oracle_energy=oracle,
            # the pole-residue form needs pairwise separated roots
            residual_bae=math.nan if degenerate else r_bae,
            residual_robust=r_robust, source=source,
            degenerate=degenerate, reduced=False, converged=converged))
    return solutions


def solve_bethe(model: ModelSpec, sector: Sector):
    """Solve for all N+1 levels of a sector through the root pipeline.

    Pipeline: diagonalize the monomial block, take the roots of each
    level's eigenpolynomial from the first candidate that passes as-is
    (the attempt whose energy agrees when none does), report the
    pole-residue residuals where the roots are distinct, and recompute the
    energy from the closed form.  The candidate ladder runs the
    eigenvector's coefficients from a twisted factorization, then those of
    the eigensolver, then the high-precision recurrence, then the float64
    recurrence as the last resort; each rung judges all of the
    sector's unresolved levels at once, as one stack of root sets, and one
    evaluation of that stack gives both residual forms.  Levels whose
    eigenpolynomial has near-multiple roots are flagged degenerate and
    validated only through the robust form.  A level's climb stops at the
    first root set whose scaled residual is within a fixed 1e-12 and whose
    energy agrees with the oracle eigenvalue to a fixed 1e-8 of
    max(1, |E|).  A g = 0 block is diagonal and solved exactly.  Each
    level's roots come back as a read-only complex128 array.  The
    independent multi-start search is `direct_search`, a separate call.
    """
    block = build_monomial_matrix(model, sector)
    op = expand_diffop(model, sector)
    return _solve_levels(op, _float_polys(op), block, diagonalize(block))


@_quiet
def direct_search(model: ModelSpec, sector: Sector, *, starts: int = 64, seed: int = 0):
    """Multi-start Newton on the pole-residue equations, no oracle input.

    Draws `starts` random root sets from a generator seeded with `seed`,
    runs at most 50 Newton steps from each with a forward-difference
    Jacobian of the pole-residue components, keeps the converged distinct
    solutions whose canonical roots' scaled robust residual is within
    1e-10, and deduplicates them by canonical ordering.  Energies come
    from the closed form, under the rule of `energy_from_roots`.  The
    result is a subset of the spectrum; completeness is not guaranteed.
    No start finds nothing, even the empty root set of an N = 0 sector,
    and a negative `starts` raises ValueError.
    """
    if starts < 0:
        raise ValueError(f"starts must be >= 0, got {starts}")
    op = expand_diffop(model, sector)
    p_list = _float_polys(op)

    def energy(roots):
        return float(_energy(op.hop_values, roots))

    n = op.n_top
    if n == 0 and starts:   # every start finds the empty root set at once
        return [BetheSolution(level=0, roots=_frozen(()), energy=energy(()),
                              oracle_energy=math.nan, residual_bae=0.0, residual_robust=0.0,
                              source="direct", degenerate=False, reduced=False, converged=True)]

    def residues(stack):
        """Pole-residue components of each root set in the stack."""
        return _pole_residues(_terms_at_roots(p_list, stack))

    rng = np.random.default_rng(seed)
    found = []
    for _ in range(starts):
        roots = _START_RADIUS * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ok = False
        for _ in range(_NEWTON_STEPS):
            if _has_close_pair(roots, _MIN_SEPARATION):
                break
            f = residues(roots[None])[0]
            if np.max(np.abs(f)) < 1e-30:
                ok = True
                break
            h = 1e-7 * max(1.0, float(np.max(np.abs(roots))))
            shifted = roots + h * np.eye(n)   # row q moves root q by h
            if any(_has_close_pair(row, _MIN_SEPARATION) for row in shifted):
                break
            jac = ((residues(shifted) - f) / h).T
            if not np.all(np.isfinite(jac)):
                break
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            roots = roots + step
            if np.max(np.abs(step)) < 1e-13 * max(1.0, float(np.max(np.abs(roots)))):
                ok = True
                break
        if not ok:
            continue
        canon = canonicalize_roots(roots)
        stack = np.asarray(canon)[None]
        at = _terms_at_roots(p_list, stack)
        r_robust = float(_scaled_robust(at)[0])
        if r_robust > _RESIDUAL_TOL:
            continue
        scale = max(1.0, max(abs(a) for a in canon))
        if any(max(abs(x - y) for x, y in zip(canon, prev.roots)) < _DEDUP_TOL * scale
               for prev in found if len(prev.roots) == len(canon)):
            continue
        # snapping conjugate pairs onto the axis can make two roots coincide
        r_bae = (math.nan if _has_close_pair(stack[0], _MIN_SEPARATION)
                 else float(_scaled_bae(at)[0]))
        found.append(BetheSolution(
            level=-1, roots=_frozen(canon), energy=energy(canon),
            oracle_energy=math.nan, residual_bae=r_bae, residual_robust=r_robust,
            source="direct", degenerate=False, reduced=False, converged=True))
    found.sort(key=lambda sol: sol.energy)
    return found


def cross_validate(model: ModelSpec, sector: Sector) -> ValidationReport:
    """Three-way check: Fock spectrum, monomial spectrum, root energies.

    One `solve_bethe` pass, without the direct search, gives the level
    solutions and, as their oracle energies, the monomial spectrum.  Never
    raises on disagreement; the report carries per-level records and an
    overall pass flag.  A level passes when its energy error, relative to
    the spectral scale max(1, max |E|), is within a fixed 1e-8
    (`_ENERGY_TOL`) and the scaled robust residual of its returned roots
    within a fixed 1e-10 (`_RESIDUAL_TOL`).
    """
    fock_spec = diagonalize(build_sector_matrix(model, sector))
    solutions = solve_bethe(model, sector)

    scale = max(1.0, float(np.max(np.abs(fock_spec.energies))))
    records = []
    worst = 0.0
    for level in range(sector.dim):
        sol = solutions[level]
        e_f = float(fock_spec.energies[level])
        e_m, e_b = sol.oracle_energy, sol.energy
        # the spread of the three energies; a NaN one is an infinite error
        energies = (e_f, e_m, e_b)
        err = ((max(energies) - min(energies)) / scale
               if all(map(math.isfinite, energies)) else math.inf)
        worst = max(worst, err)
        ok = err <= _ENERGY_TOL and sol.residual_robust <= _RESIDUAL_TOL
        records.append(LevelRecord(
            level=level, energy_fock=e_f, energy_monomial=e_m, energy_bethe=e_b,
            energy_error=err, residual_robust=sol.residual_robust,
            residual_bae=sol.residual_bae, n_roots=len(sol.roots),
            degenerate=sol.degenerate, ok=ok))
    passed = all(rec.ok for rec in records)
    return ValidationReport(dim=sector.dim, base_occupations=sector.base_occupations,
                            levels=tuple(records), max_energy_error=worst, passed=passed,
                            solutions=tuple(solutions))
