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
`diffop.hop_values`.  A closed-form energy whose imaginary part exceeds a
fixed 1e-8 of max(1, |Re E|) rejects its root set, in `energy_from_roots`,
the solve path and the direct search alike.

The production solve path (`solve_bethe`) solves a diagonal block (g = 0,
or N = 0) exactly: level l is z^n(l), n(l) the index of the unit vector
`hamiltonian.diagonalize` gives it, with energy B(n) and zero residuals;
it is `reduced` when n < N.  Otherwise every level's roots come from one
route: the levels' columns of `spec.vectors`, the eigenvectors
`diagonalize` takes from a twisted factorization of the monomial block
minus each eigenvalue (`hamiltonian._twisted_rows`), form one (L, N + 1)
array of coefficient rows, low order first, and one `_roots_of_rows` call
maps it to an (L, N) array of root sets and an (L,) mask of the rows that
have them.  Each row is scaled to z = sigma w first (Bini 1996), so that
its lowest nonzero and its top coefficient have the same magnitude, and
its roots are sigma times its companion matrix's eigenvalues.  A row that
is non-finite, has a zero top coefficient or a scaled form that is not
finite has none, nor does a row LAPACK does not converge on.  The
companion matrices are solved as one stack; a stack large enough to pay
for it (from N + 1 matrices of size N ~ 32) is cut into parts, at most one
per CPU the process may use and none below the work at which a 2-way split
was measured to pay, and the parts are solved on as many threads; each
matrix gets the same LAPACK call either way, so the roots are bit for bit
those of a serial solve.  The masked rows form one (L', N) stack of
candidates, judged as a whole (`_judged`): canonicalized once
(`_canonical`), then their residuals, closed-form energies and degenerate
flags are computed on that stack, in the (re, im) order it leaves.  Only a
set not already closed under conjugation, root for root, takes the
canonical form's pairing loop: LAPACK's real eigensolver gives each
complex pair exactly, so no set of the solve path does.  Each canonical
set is both scored and returned, as a read-only complex array of its own,
tagged 'extracted'.  A level is `converged` when its scaled robust
residual is within a fixed 1e-10 and its closed-form energy agrees with
the oracle eigenvalue to a fixed 1e-8 of the spectral scale
max(1, max |E|); an unconverged level keeps its roots all the same.  A
level whose row has no roots is unconverged, with no roots and a NaN
energy.  This module computes no eigenvector of its own, and there is no
second route.

`converged` is the one certificate of a level's roots: `cross_validate`
passes a level that is `converged` and whose Fock, monomial and
closed-form energies agree within 1e-8 of the spectral scale.  The
terms P_i(a_p) psi^(i)(a_p) of H psi and their magnitude bounds are
evaluated once per stack of root sets (`_terms_at_roots`, with psi's
coefficients expanded from its roots in order of modulus, and psi, its
derivatives and the P_i held as zero-padded coefficient planes, each set
of planes valued in one in-place Horner sweep, numpy.polynomial's
polyval of each bit for bit, NaN signs aside), and both residual forms
read that one evaluation; an overflowed bound reads as an infinite
residual.  An independent multi-start Newton search on the pole-residue
equations, run on the same operator, is available as a confirmation mode
(`direct_search`): each Newton step evaluates a root set and its shifted
copies as one stack, and the converged starts are judged as one stack of
root sets by the same `_judged`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, fields

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
# Relative distance within which `_canonical` snaps conjugate pairs.
_PAIR_TOL = 1e-11
# Scaled robust residual within which a root set is accepted: a solved
# level is `converged`, and a direct-search set is kept.
_RESIDUAL_TOL = 1e-10
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
    (the roots of the block's eigenvector from the twisted factorization,
    or the exact monomial of a diagonal block) or 'direct' (independent
    multi-start search).
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
    """One level of `cross_validate`: its Fock, monomial and root energies,
    their largest disagreement, its roots' residuals and count, and `ok`,
    the level's verdict."""

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
    solutions: tuple

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
    entry multiplies it by z.  Each row's factors are taken in order of
    increasing |a_j|.  In a set's sorted order (by real part) the partial
    products of same-signed roots grow coefficients that later cancel: on
    preset C at N=60 that order errs by about 3e-12 of the residual's
    bound, and this one by 5e-15, as at 60 digits.  The product is built
    coefficient-major, (N + 1, L), and a stack's result is its transpose.
    """
    roots = np.asarray(roots, dtype=complex)
    rows = np.atleast_2d(roots)
    # factor j of every row, (N, L)
    factors = rows[np.arange(len(rows)), np.argsort(np.abs(rows), axis=1, kind="stable").T]
    n = rows.shape[1]
    out = np.zeros((n + 1, rows.shape[0]), dtype=complex)
    out[n] = 1.0
    for j, factor in enumerate(factors):
        out[n - j - 1:n] -= factor * out[n - j:]
    return out.T if roots.ndim == 2 else out[:, 0]


def _float_polys(op: DiffOpForm) -> np.ndarray:
    """The operator's P_0 .. P_M as one (deg, M + 1, 1, 1) complex array:
    entry [k, i] is the z^k coefficient of P_i, zero past its degree; one
    row of zeros if every P_i is zero."""
    planes = np.zeros((max([1] + [len(p.coeffs) for p in op.p]), len(op.p), 1, 1), dtype=complex)
    for i, p in enumerate(op.p):
        planes[:len(p.coeffs), i, 0, 0] = [complex(c) for c in p.coeffs]
    return planes


def _derivatives(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Each (L, K) row of coefficients, low to high, and its first `order`
    derivatives as one (K, order + 1, L, 1) array: [k, i, l] is the z^k
    coefficient of row l's i-th derivative, zero past its degree.  Each
    derivative takes `polyder`'s steps: scale by 1 (inf + 0j becomes
    inf + nanj), then coefficient j times j; a constant's is zero, as
    polyder's c * 0 is while c is finite, as on a monic row."""
    planes = np.zeros((coeffs.shape[1], order + 1, len(coeffs), 1), dtype=coeffs.dtype)
    planes[:, 0, :, 0] = coeffs.T
    scale = np.arange(1, coeffs.shape[1])[:, None, None]
    for i in range(1, order + 1):
        np.multiply(scale, planes[1:, i - 1] * 1, out=planes[:-1, i])
    return planes


def _horner(planes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values at (L, N) points of the polynomials whose coefficients, low
    order first, run along axis 0 of a (K, I, L or 1, 1) array, as (I, L, N),
    by one in-place Horner sweep.  For two values or more (the kernel's
    M + 1 >= 2 orders; numpy multiplies a lone complex value in place
    without its vector loop's fused multiply-add), each is numpy.polynomial's
    `polyval` bit for bit, a NaN's sign and payload aside: a zero-padded top
    coefficient only adds a signed zero."""
    value = planes[-1] + points * 0
    for plane in planes[-2::-1]:
        value *= points
        value += plane
    return value


def _terms_at_roots(p: np.ndarray, roots: np.ndarray):
    """The terms of H psi = sum_i P_i psi^(i) at every root of the stack,
    for the P_i of `_float_polys`.

    Returns (terms, bounds, dpsi): terms[i] = P_i(a_p) psi^(i)(a_p) and
    bounds[i] = |P_i|(|a_p|) |psi^(i)|(|a_p|), each (M + 1, L, N), where
    |q| is q with its coefficients' magnitudes; dpsi = psi'(a_p) is (L, N).
    Psi with its derivatives, and the P_i, each take one sweep at the roots
    and one at their moduli, whatever M; a zero P_i's terms and bounds are
    zero.  The bounds are the residual scale, which must not come from the
    (possibly perfectly cancelled) sum: an eigenvalue at zero makes H psi
    the zero polynomial.
    """
    psi = _derivatives(_monic_from_roots(roots), p.shape[1] - 1)
    points = np.abs(roots)
    values = _horner(psi, roots)
    terms = _horner(p, roots) * values
    bounds = _horner(np.abs(p), points) * _horner(np.abs(psi), points)
    zero = ~p.any(axis=(0, 2, 3))
    terms[zero], bounds[zero] = 0, 0
    return terms, bounds, values[1]


def _close_pairs(stack: np.ndarray, rel_tol: float) -> list:
    """Per row of an (L, N) stack of root sets, whether two of its roots lie
    within rel_tol * max(1, max|root|) of the row, as a list of bools.

    A NaN gap never counts as close and hides no other pair.  Each row is
    sorted by real part first (`_close_sorted`).
    """
    return _close_sorted(np.take_along_axis(stack, np.argsort(stack.real, axis=1), axis=1),
                         rel_tol)


def _close_sorted(z: np.ndarray, rel_tol: float) -> list:
    """`_close_pairs` of a stack whose rows are sorted by real part, NaN
    last, in any order of equal real parts, as `_canonical` leaves them.

    A gap is never below its real part's, so only the pairs up to the
    first offset at which no real gap of any row is below the bound need
    their modulus; the flags are those of all pairs, whatever the order
    of equal real parts.
    """
    n_rows, n = z.shape
    close = np.zeros(n_rows, dtype=bool)
    if n < 2:
        return close.tolist()
    # fmax, as Python's max(1.0, nan): a NaN root leaves the scale at 1
    bound = rel_tol * np.fmax(1.0, np.max(np.abs(z), axis=1, keepdims=True))
    for offset in range(1, n):
        near = z.real[:, offset:] - z.real[:, :-offset] < bound
        if not near.any():
            break
        close |= np.any(near & (np.abs(z[:, offset:] - z[:, :-offset]) < bound), axis=1)
    return close.tolist()


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
    return np.max(ratio, axis=1, initial=0.0)


# ----------------------------------------------------------------------
# residual forms

def _root_set(op: DiffOpForm, roots) -> np.ndarray:
    """One root set as a complex array; more than N roots make a psi
    outside the invariant subspace, a ValueError as in `energy_from_roots`."""
    roots = np.asarray(roots, dtype=complex)
    if roots.size > op.n_top:
        raise ValueError(f"got {roots.size} roots for a sector with N={op.n_top}")
    return roots


@_quiet
def bethe_residuals(op: DiffOpForm, roots) -> np.ndarray:
    """Pole-residue components, one per root, via derivatives of psi.

    Component p is  sum_{i=1..M} P_i(a_p) psi^(i)(a_p) / psi'(a_p), which
    equals the nested subset sum over the other roots; all components
    vanish exactly when every a_p is a removable singularity of
    (H psi)/psi.  Requires pairwise separations above `_MIN_SEPARATION`
    relative to the root scale, and at most N roots.
    """
    roots = _root_set(op, roots)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    if _close_pairs(roots[None], _MIN_SEPARATION)[0]:
        raise ValueError("coincident roots: use the robust residual form")
    return _pole_residues(_terms_at_roots(_float_polys(op), roots[None]))[0]


@_quiet
def robust_residuals(op: DiffOpForm, roots) -> np.ndarray:
    """(H psi)(a_p) for the monic psi built from the roots.

    Vanishing of all components, together with the automatic degree bound
    deg(H psi) <= N, is equivalent to psi being an eigenfunction: a
    ratio (H psi)/psi with no poles and no growth at infinity is constant.
    At most N roots; fewer, as a reduced level's psi has, are allowed.
    """
    roots = _root_set(op, roots)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    terms, _, _ = _terms_at_roots(_float_polys(op), roots[None])
    return terms.sum(axis=0)[0]


# ----------------------------------------------------------------------
# root extraction and bookkeeping

def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


# Work (matrix count x size^3) each part of a split eigensolve needs at
# least; a stack with less than twice this is solved in one call.  On a
# 2-vCPU host, with single-threaded BLAS, `cross_validate` on preset A at
# g = 0.8 (N + 1 companion matrices of size N) took, in two runs of 21
# alternating pairs (medians), 8.7-9.1 ms serial and 9.0-10.9 ms split 2
# ways at N = 31 (parts of 4.8e5), and 9.6-9.8 ms serial and 8.7-9.1 ms
# split at N = 32 (parts of 5.4e5).  Only 2-way splits were measured; more
# parts, on a host with more CPUs, are cut to the same floor.
_PART_WORK = 5e5


def _eigvals_parts(companion: np.ndarray) -> np.ndarray:
    """`np.linalg.eigvals` of a stack of matrices, one row of eigenvalues
    per matrix, in stack order.

    The stack is cut into as many parts as the process has CPUs, but none
    with less work than `_PART_WORK`; with one part it gets one call.
    Otherwise the calling thread solves the first part and a thread started
    for each other part solves that one, all in parallel (LAPACK runs
    without the GIL), each in a copy of the caller's context, so numpy's
    error state is the caller's.  Each matrix goes through the same geev
    call either way, so each row of eigenvalues is bit for bit the same.
    The parts are joined into one array: a part whose eigenvalues are all
    real joins complex ones as the same values.  An error in any part is
    raised once every part has finished.
    """
    work = len(companion) * companion.shape[-1] ** 3
    count = min(_cpus(), len(companion), int(work // _PART_WORK))
    if count < 2:
        return np.linalg.eigvals(companion)
    first, *rest = np.array_split(companion, count)
    parts = [None] * len(rest)

    def solve(index):
        try:
            parts[index] = np.linalg.eigvals(rest[index])
        except Exception as error:   # raised on the calling thread
            parts[index] = error

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(solve, index))
               for index in range(len(rest))]
    for thread in threads:
        thread.start()
    try:
        head = np.linalg.eigvals(first)
    finally:
        for thread in threads:   # wait for every part, whatever the caller's did
            thread.join()
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return np.concatenate([head, *parts])


def _roots_of_rows(rows: np.ndarray):
    """Roots of each polynomial sum_n row[n] z^n of an (L, N + 1) array of
    coefficient rows, low order first: an (L, N) complex array of root
    sets and an (L,) mask of the rows that have roots.

    Each row is first scaled to z = sigma w (Bini 1996), with sigma =
    (|c_low| / |c_N|)^(1 / (N - low)) and c_low its lowest nonzero
    coefficient: the scaled row, high order first, is c_(N-j) / sigma^j
    from c_N down to c_low, so its two ends have the same magnitude and its
    companion matrix no longer spans the row's whole range.  A row has roots
    when it is finite, its top coefficient is nonzero, its scaled form is
    finite and LAPACK converges on its companion matrix; its roots are then
    bit for bit `numpy.roots` of the scaled row, cast to complex, with the
    real and imaginary parts each multiplied by sigma, and a row outside the
    mask reads zeros.  There is no unscaled retry.  As in `numpy.roots`,
    each zero constant term gives a root at 0 after the eigenvalues, and
    the companion matrix keeps the rows' dtype.  The rows with the same
    number of zero constant terms share a degree, and their companion
    matrices are solved as one stack (`_eigvals_parts`): one geev call per
    matrix, on the CPUs the process may use when the stack is large.  One
    matrix LAPACK does not converge on makes the whole stack raise
    LinAlgError; the stack is then redone one matrix at a time, and a row
    whose own eigensolve fails drops out of the mask.
    """
    n = rows.shape[1] - 1
    roots = np.zeros((len(rows), n), dtype=complex)
    has = np.all(np.isfinite(rows), axis=1) & (rows[:, -1] != 0)
    lows = np.argmax(rows != 0, axis=1)
    for low in np.flatnonzero(np.bincount(lows[has])).tolist():
        index = np.flatnonzero(has & (lows == low))
        size = n - low
        part = rows[index, low:]
        sigma = (np.abs(part[:, 0]) / np.abs(part[:, -1])) ** (1 / max(size, 1))
        coeffs = part[:, ::-1] / sigma[:, None] ** np.arange(size + 1)
        finite = np.all(np.isfinite(coeffs), axis=1) & np.isfinite(sigma)
        if not finite.all():
            has[index[~finite]] = False
            index, sigma, coeffs = index[finite], sigma[finite], coeffs[finite]
        companion = np.zeros((len(index), size, size), dtype=rows.dtype)
        companion[:, :1, :] = (-coeffs[:, 1:] / coeffs[:, :1])[:, None, :]
        companion[:, range(1, size), range(size - 1)] = 1
        found = np.zeros((len(index), size), dtype=complex)
        try:
            found[:] = _eigvals_parts(companion)
        except np.linalg.LinAlgError:
            has[index] = False
            if len(index) > 1:   # redo the stack one matrix at a time
                for row, (matrix, out) in enumerate(zip(companion, found)):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        out[:] = np.linalg.eigvals(matrix[None])[0]
                        has[index[row]] = True
        # z = sigma w, part by part; a row without roots stays zero
        found.real *= sigma[:, None]
        found.imag *= sigma[:, None]
        roots[index, :size] = found
    return roots, has


def canonicalize_roots(roots) -> tuple:
    """Sort roots by (re, im) after snapping conjugate pairs.

    Near-real roots are flattened onto the axis; off-axis roots are paired
    with their closest conjugate partner and symmetrized, so a root set of
    a real-coefficient polynomial serializes deterministically.  No solver
    path calls it: the solve path and the direct search canonicalize their
    whole stack of finite root sets at once (`_canonical`), and score and
    return the canonical sets; this is that routine on a stack of one.
    """
    stack = np.array([[complex(a) for a in roots]], dtype=complex)
    return tuple(_canonical(stack)[0].tolist())


def _canonical(stack: np.ndarray) -> np.ndarray:
    """The canonical form of each row of an (L, N) stack of finite root
    sets, as a new (L, N) complex array.

    Per row, with tol = 1e-11 max(1, max |root|): roots within tol of the
    axis are flattened onto it; the roots above it, in (re, im) order, each
    take the first unused root below it, in (re, -im) order, at the
    smallest distance from their conjugate, and a partner within 10 tol
    makes the pair its mean m and conj(m).  The set is then sorted by (re,
    im), a tie kept in the order the pairing built it: axis roots in input
    order, then each upper root's m, conj(m) or unpaired self, then the
    unpaired lower roots.  Each step is Python's complex arithmetic written
    out, so every row is bit for bit what the same steps give on Python
    complex numbers, one set at a time (`tests/oracles.py` keeps that
    loop): moduli by `np.hypot` (`np.abs` can differ in the last bit), a
    flattened root as re + 0.0 (-0.0 becomes 0.0), and the mean as
    Python's division by 2.

    Only a row that is not closed under conjugation takes the pairing loop
    (`_paired`).  A row is closed when its roots, flattened, are their own
    conjugates root for root (by value, so -0.0 pairs with 0.0), as the
    roots of a real row from LAPACK's real eigensolver are, and no part
    reaches 2^1023.  Its k-th root above the axis, in (re, im) order, then
    takes the k-th below it, in (re, -im) order, at distance 0, and their
    mean is (re + 0.0, +-im) exactly: the row is its flattened roots sorted
    by (re, im), whose ties are equal bits.
    """
    z = np.array(stack, dtype=complex)
    if not z.size:
        return z
    scale = np.hypot(z.real, z.imag).max(axis=1, keepdims=True)
    tol = _PAIR_TOL * np.maximum(1.0, scale)
    flat = z + 0.0
    flat.imag[np.abs(z.imag) <= tol] = 0.0
    out = np.sort(flat, axis=1)      # by (re, im)
    # a part below 2^1023 doubles to a finite value, so the mean is exact
    closed = np.all(np.sort(out.conj(), axis=1) == out, axis=1) & (scale[:, 0] < 2.0 ** 1023)
    rest = np.flatnonzero(~closed)
    if rest.size:
        out[rest] = _paired(z[rest])
    return out


def _paired(z: np.ndarray) -> np.ndarray:
    """`_canonical` of each row of a nonempty (L, N) stack by the pairing
    loop, which runs once per upper-root position across all rows."""
    n_rows, n = z.shape
    tol = _PAIR_TOL * np.maximum(1.0, np.hypot(z.real, z.imag).max(axis=1, keepdims=True))
    side = (z.imag > tol) + 2 * (z.imag < -tol)     # 0 on the axis, 1 above, 2 below
    # axis roots in input order, then the upper roots by (re, im) and the
    # lower ones by (re, -im): lexsort is stable
    off = side > 0
    order = np.lexsort((np.where(side == 1, z.imag, -z.imag) * off, z.real * off, side), axis=1)
    z, side = np.take_along_axis(z, order, axis=1), np.take_along_axis(side, order, axis=1)
    z[side == 0] = z.real[side == 0] + 0.0
    n_axis = np.count_nonzero(side == 0, axis=1)[:, None]
    n_upper = np.count_nonzero(side == 1, axis=1)[:, None]
    n_lower = n - n_axis - n_upper
    column = np.arange(n)
    # construction order: axis roots, then upper root k at n + 2k (its
    # partner's conj(m) at n + 2k + 1), then the unpaired lower roots
    built = np.where(side == 0, column,
                     np.where(side == 1, n + 2 * (column - n_axis), 3 * n + column))
    if n_upper.any() and n_lower.any():
        rows = np.arange(n_rows)[:, None]
        upper, lower = np.arange(n_upper.max()), np.arange(n_lower.max())
        up_col = np.minimum(n_axis + upper, n - 1)              # padded past the last
        low_col = np.minimum(n_axis + n_upper + lower, n - 1)
        up, low = z[rows, up_col], z[rows, low_col]
        # distance of upper root k to the conjugate of lower root q, (L, K, Q)
        dist = np.hypot(up.real[:, :, None] - low.real[:, None, :],
                        up.imag[:, :, None] + low.imag[:, None, :])
        dist[(upper >= n_upper)[:, :, None] | (lower >= n_lower)[:, None, :]] = np.inf
        partner = np.full(up.shape, -1)
        # a row with no upper root pairs nothing: with an infinite modulus
        # its reach is infinite, and so is every padded distance
        reach = np.where(n_upper[:, 0] > 0, 10 * tol[:, 0], -np.inf)
        for k in upper:
            best = np.argmin(dist[:, k], axis=1)
            near = np.flatnonzero(dist[rows[:, 0], k, best] <= reach)
            best = best[near]
            partner[near, k] = best
            dist[near, :, best] = np.inf      # a lower root pairs once
        r, k = np.nonzero(partner >= 0)
        q = partner[r, k]
        s_re, s_im = up.real[r, k] + low.real[r, q], up.imag[r, k] - low.imag[r, q]
        # Python's complex s / 2 step by step: a -0.0 real part becomes 0.0
        m_re, m_im = (s_re + s_im * 0.0) / 2, (s_im - s_re * 0.0) / 2
        z.real[r, up_col[r, k]], z.imag[r, up_col[r, k]] = m_re, m_im
        z.real[r, low_col[r, q]], z.imag[r, low_col[r, q]] = m_re, -m_im
        built[r, low_col[r, q]] = n + 2 * k + 1
    order = np.lexsort((built, z.imag, z.real), axis=1)
    return np.take_along_axis(z, order, axis=1)


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
    hop_a, hop_b, _ = values = hop_values(model, sector)   # A(0..N-1), B(0..N)
    roots = tuple(roots)
    if len(roots) > len(hop_a):
        raise ValueError(f"got {len(roots)} roots for a sector with N={len(hop_a)}")
    if not roots:
        return hop_b[-1]
    return _energy_of_sum(values, sum(roots))


def _energy_of_sum(values, total):
    """E = B(N) - A(N-1) * total, under the imaginary-part rule of
    `energy_from_roots`."""
    hop_a, hop_b, _ = values
    if isinstance(total, complex):
        # complex times complex, the same on every Python: a real times a
        # complex is part by part from 3.14 on, where 0.0 * inf is not NaN
        energy = complex(hop_b[-1]) - complex(hop_a[-1]) * total
    else:
        energy = hop_b[-1] - hop_a[-1] * total
    if isinstance(energy, complex):
        scale = max(1.0, abs(energy.real))
        if abs(energy.imag) > _IMAG_TOL * scale:
            raise ValueError(f"energy has imaginary part {energy.imag:.3e}: invalid root set")
        return float(energy.real)
    return energy


def _closed_form_energies(op: DiffOpForm, stack: np.ndarray) -> np.ndarray:
    """Closed-form energy of each row of an (L, N) stack of complex root
    sets, NaN where the imaginary-part rule rejects it.

    The sums run column by column, left to right, as Python's `sum` adds a
    root set (`np.sum` adds pairwise, in other rounding), and B(N) -
    A(N-1) * total is written out as `_energy_of_sum` evaluates it with a
    complex total: each coupling as complex(float(x), 0.0), so a 0.0 times
    an infinite part is NaN.  Each energy is bit for bit `energy_from_roots`
    of its row.
    """
    totals = np.zeros(len(stack), dtype=complex)
    for column in stack.T:
        totals += column
    hop_a, hop_b, _ = op.hop_values
    a, b = float(hop_a[-1]), float(hop_b[-1])
    real = b - (a * totals.real - 0.0 * totals.imag)
    imag = 0.0 - (a * totals.imag + 0.0 * totals.real)
    # fmax, as Python's max(1.0, nan); a NaN imaginary part rejects nothing
    return np.where(np.abs(imag) > _IMAG_TOL * np.fmax(1.0, np.abs(real)), math.nan, real)


def _judged(op: DiffOpForm, polys, stack: np.ndarray, rel_tol: float):
    """An (L, N) stack of root sets judged as one: its canonical form and,
    per canonical set, as lists, the scaled robust residual, the scaled
    pole-residue residual (NaN where two roots lie within rel_tol of the
    set's root scale, which that form cannot take), the closed-form energy
    (`_closed_form_energies`) and that close flag."""
    stack = _canonical(stack)
    at = _terms_at_roots(polys, stack)
    close = _close_sorted(stack, rel_tol)
    bae = np.where(close, math.nan, _scaled_bae(at))
    return (stack, _scaled_robust(at).tolist(), bae.tolist(),
            _closed_form_energies(op, stack).tolist(), close)


@_quiet
def _solve_levels(op, polys, block, spec):
    """One `BetheSolution` per level of a sector, in level order, from the
    one root route of the module docstring, given the sector's operator,
    its float P_i, its monomial block and that block's spectrum.  Each
    level's solution is built once: from its judged roots, or, for a level
    whose row has none, with no roots and a NaN energy.
    """
    oracles = spec.energies.tolist()
    if not block.lower.any():
        n_top = block.dim - 1
        return [BetheSolution(
            level=level, roots=_frozen(np.zeros(n)), energy=float(block.diag[n]),
            oracle_energy=oracles[level], residual_bae=math.nan if n >= 2 or n < n_top else 0.0,
            residual_robust=0.0, source="extracted", degenerate=n >= 2, reduced=n < n_top,
            converged=True) for level, n in enumerate(np.argmax(spec.vectors, axis=0).tolist())]

    energy_tol = _ENERGY_TOL * max(1.0, float(np.max(np.abs(spec.energies))))
    sets, has = _roots_of_rows(spec.vectors.T)
    solutions = [None if has_roots else BetheSolution(
        level=level, roots=_frozen(()), energy=math.nan, oracle_energy=oracle,
        residual_bae=math.nan, residual_robust=math.inf, source="extracted", degenerate=False,
        reduced=False, converged=False) for level, (oracle, has_roots) in
        enumerate(zip(oracles, has.tolist()))]
    judged = zip(np.flatnonzero(has).tolist(), *_judged(op, polys, sets[has], _DEGENERATE_TOL))
    for level, roots, resid, r_bae, energy, degenerate in judged:
        oracle = oracles[level]
        solutions[level] = BetheSolution(
            # a copy of its own: a level never pins the stack
            level=level, roots=_frozen(roots), energy=energy, oracle_energy=oracle,
            residual_bae=r_bae, residual_robust=resid, source="extracted",
            degenerate=degenerate, reduced=False,
            converged=resid <= _RESIDUAL_TOL and abs(energy - oracle) <= energy_tol)
    return solutions


def solve_bethe(model: ModelSpec, sector: Sector):
    """Solve for all N+1 levels of a sector through the root pipeline.

    Returns one `BetheSolution` per level, in level order, each with its
    roots as a read-only complex128 array, its closed-form energy and, as
    its oracle energy, the monomial block's eigenvalue; a level is
    `converged` when its roots' scaled robust residual is within 1e-10 and
    its energy agrees with the oracle to 1e-8 of the spectral scale
    max(1, max |E|).  The one route that finds the roots is described in
    the module docstring.  The independent multi-start search is
    `direct_search`, a separate call.
    """
    block = build_monomial_matrix(model, sector)
    op = expand_diffop(model, sector)
    return _solve_levels(op, _float_polys(op), block, diagonalize(block))


@_quiet
def direct_search(model: ModelSpec, sector: Sector, *, starts: int = 64, seed: int = 0):
    """Multi-start Newton on the pole-residue equations, no oracle input.

    Draws `starts` random root sets from a generator seeded with `seed`,
    runs at most 50 Newton steps from each with a forward-difference
    Jacobian of the pole-residue components, then judges the converged
    starts as one stack of root sets, canonicalized once: it keeps each
    set whose scaled robust residual is within 1e-10 and that differs from
    every set kept from an earlier start, in some root, by at least 1e-7 of
    its root scale max(1, max |root|).  Energies come from the closed form, under the rule of
    `energy_from_roots`: a kept set that rule rejects raises ValueError.
    The solutions come back sorted by energy.  The result is a subset of
    the spectrum; completeness is not guaranteed.
    No start finds nothing, even the empty root set of an N = 0 sector,
    and a negative `starts` raises ValueError.
    """
    if starts < 0:
        raise ValueError(f"starts must be >= 0, got {starts}")
    op = expand_diffop(model, sector)
    polys = _float_polys(op)
    n = op.n_top
    if n == 0 and starts:   # every start finds the empty root set at once
        return [BetheSolution(level=0, roots=_frozen(()), energy=float(op.hop_values[1][-1]),
                              oracle_energy=math.nan, residual_bae=0.0, residual_robust=0.0,
                              source="direct", degenerate=False, reduced=False, converged=True)]

    rng = np.random.default_rng(seed)
    converged = []
    for _ in range(starts):
        roots = _START_RADIUS * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for _ in range(_NEWTON_STEPS):
            h = 1e-7 * max(1.0, float(np.max(np.abs(roots))))
            # the set, then its shifts: row q + 1 moves root q by h
            stack = np.vstack((roots, roots + h * np.eye(n)))
            close = _close_pairs(stack, _MIN_SEPARATION)
            if close[0]:
                break
            residues = _pole_residues(_terms_at_roots(polys, stack))
            f = residues[0]
            if np.max(np.abs(f)) < 1e-30:
                converged.append(roots)
                break
            if any(close[1:]):
                break
            jac = ((residues[1:] - f) / h).T
            if not np.all(np.isfinite(jac)):
                break
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            roots = roots + step
            if np.max(np.abs(step)) < 1e-13 * max(1.0, float(np.max(np.abs(roots)))):
                converged.append(roots)
                break
    if not converged:   # no start gives np.array no (L, N) shape to judge
        return []
    # snapping conjugate pairs onto the axis can make two roots coincide
    stack, robust, bae, energies, _ = _judged(op, polys, np.array(converged), _MIN_SEPARATION)
    # moduli by np.hypot, as Python's abs of a complex
    scales = np.maximum(1.0, np.hypot(stack.real, stack.imag).max(axis=1))
    found, kept = [], []   # the distinct certified sets and their rows, in start order
    for row, resid in enumerate(robust):
        gaps = stack[row] - stack[kept]
        if resid > _RESIDUAL_TOL or np.any(
                np.hypot(gaps.real, gaps.imag).max(axis=1) < _DEDUP_TOL * scales[row]):
            continue
        kept.append(row)
        energy = energies[row]
        if math.isnan(energy):   # raises where the imaginary-part rule rejects the set
            energy = _energy_of_sum(op.hop_values, sum(stack[row].tolist()))
        found.append(BetheSolution(
            level=-1, roots=_frozen(stack[row]), energy=energy, oracle_energy=math.nan,
            residual_bae=bae[row], residual_robust=resid, source="direct",
            degenerate=False, reduced=False, converged=True))
    found.sort(key=lambda sol: sol.energy)
    return found


def cross_validate(model: ModelSpec, sector: Sector) -> ValidationReport:
    """Three-way check: Fock spectrum, monomial spectrum, root energies.

    One `solve_bethe` pass, without the direct search, gives the level
    solutions and, as their oracle energies, the monomial spectrum.  Never
    raises on disagreement; the report carries per-level records and an
    overall pass flag.  A level passes when its solution is `converged`
    and the spread of its Fock, monomial and closed-form energies,
    relative to the spectral scale max(1, max |E|), is within a fixed 1e-8
    (`_ENERGY_TOL`).  The Fock block, the monomial block and the operator
    all read the sector's one hop table (`diffop._hop_table`).
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
        ok = sol.converged and err <= _ENERGY_TOL
        records.append(LevelRecord(
            level=level, energy_fock=e_f, energy_monomial=e_m, energy_bethe=e_b,
            energy_error=err, residual_robust=sol.residual_robust,
            residual_bae=sol.residual_bae, n_roots=len(sol.roots),
            degenerate=sol.degenerate, ok=ok))
    passed = all(rec.ok for rec in records)
    return ValidationReport(dim=sector.dim, base_occupations=sector.base_occupations,
                            levels=tuple(records), max_energy_error=worst, passed=passed,
                            solutions=tuple(solutions))
